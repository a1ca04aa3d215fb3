package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"rdramstream/internal/service"
)

// trace-ingest shape: a small hot set re-POSTed four times in five
// (cache hits) and a pool of fresh traces for the fifth (misses), in a
// seeded order. The pool outlasts the misses of any one phase, and
// every phase starts a fresh server, so a fresh trace always misses.
const (
	traceBlock  = 5  // one request in traceBlock POSTs a fresh trace
	traceFresh  = 64 // more than the misses of the longest phase
	traceSeqLen = 4096
)

var tracePlan = servingPlan{
	refRate: 15,
	rates:   ladder(20, 1.06, 24),
	limitMS: 300,
}

// traceInputs are trace-ingest's pre-encoded bodies and references: the
// hot set first, then the fresh pool, and the request sequence over them.
type traceInputs struct {
	bodies []traceBody
	refs   []reference
	seq    []int
}

func buildTraceInputs(seed int64) (*traceInputs, error) {
	in := &traceInputs{}
	add := func(pattern string, progSeed int64) error {
		b, ref, err := traceReference(pattern, progSeed)
		if err != nil {
			return err
		}
		in.bodies = append(in.bodies, b)
		in.refs = append(in.refs, ref)
		return nil
	}
	for i, p := range tracePatterns {
		if err := add(p, seed*1000+int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < traceFresh; i++ {
		if err := add(tracePatterns[i%len(tracePatterns)], seed*1000+100+int64(i)); err != nil {
			return nil, err
		}
	}
	in.seq = drawTraceSequence(seed, traceSeqLen)
	return in, nil
}

// drawTraceSequence draws which body each request POSTs, stratified so
// every stretch of the sequence carries the same work: each block of
// traceBlock requests holds one fresh body (the next of the pool) at a
// seeded position, and the hot bodies are dealt from a shuffled deck
// of the hot set, so each is POSTed equally often.
func drawTraceSequence(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	hot := len(tracePatterns)
	var deck []int
	fresh, freshAt := 0, 0
	seq := make([]int, n)
	for i := range seq {
		if i%traceBlock == 0 {
			freshAt = i + rng.Intn(traceBlock)
		}
		if i == freshAt {
			seq[i] = hot + fresh%traceFresh
			fresh++
			continue
		}
		if len(deck) == 0 {
			deck = rng.Perm(hot)
		}
		seq[i], deck = deck[0], deck[1:]
	}
	return seq
}

// runTraceIngest is the open-loop trace workload: seeded Poisson
// arrivals POSTing rdtrace/v1 bodies to one service over loopback.
func runTraceIngest(cfg *config) (*report, error) {
	in, setupS, err := repeatSetup(cfg.setupRepeats(), func() (*traceInputs, error) {
		in, err := buildTraceInputs(cfg.seed)
		if err != nil {
			return nil, err
		}
		t, err := newTraceTarget(in) // server start is part of set-up
		if err != nil {
			return nil, err
		}
		t.stop(map[string]float64{})
		return in, nil
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setupS
	hit, bus, pct := deviceRatios(in.refs)
	rep.metrics["sim_pct_peak"] = pct
	rep.layer["rdram.page_hit_ratio"] = hit
	rep.layer["rdram.bus_util"] = bus
	err = runServing(cfg, rep, tracePlan, len(in.seq), func() (target, error) { return newTraceTarget(in) })
	return rep, err
}

// traceTarget is one fresh service behind its HTTP handler.
type traceTarget struct {
	in  *traceInputs
	svc *service.Service
	srv *server
	cl  *http.Client
}

func newTraceTarget(in *traceInputs) (*traceTarget, error) {
	svc, err := newService()
	if err != nil {
		return nil, err
	}
	srv, err := listen(service.NewHandler(svc))
	if err != nil {
		closeService(svc)
		return nil, err
	}
	t := &traceTarget{in: in, svc: svc, srv: srv, cl: loadClient()}
	if _, err := t.cl.Get(srv.url + "/healthz"); err != nil {
		t.stop(map[string]float64{})
		return nil, err
	}
	return t, nil
}

func (t *traceTarget) send(i int, due time.Time, tr *tracer) reply {
	k := t.in.seq[i]
	b, ref := &t.in.bodies[k], &t.in.refs[k]
	rq := tr.request()
	req := tr.startAt("request", rq, 0, due)
	defer req.end()
	var body []byte
	var err error
	tr.do("http POST /v1/trace", rq, req.id(), func(int64) {
		body, err = post(t.cl, t.srv.url+"/v1/trace", "application/x-ndjson", b.body)
	})
	if err != nil {
		return reply{err: err}
	}
	var r simulateReply
	if err := json.Unmarshal(body, &r); err != nil {
		return reply{err: err}
	}
	if r.Key != b.key {
		return reply{err: fmt.Errorf("%s: key %s, local %s: %w", b.name, r.Key, b.key, errMismatch)}
	}
	if !sameBytes(r.Outcome, ref.outcome) {
		return reply{err: fmt.Errorf("%s: %w", b.name, errMismatch)}
	}
	rp := reply{scenarios: 1, cycles: ref.out.Cycles}
	if r.Cached {
		rp.hits = 1
	}
	return rp
}

func (t *traceTarget) stop(layer map[string]float64) {
	t.srv.close()
	m := t.svc.Metrics()
	closeService(t.svc)
	t.cl.CloseIdleConnections()
	c := m.Cache
	if n := c.Hits + c.Misses + c.Dedups; n > 0 {
		layer["resultcache.hit_ratio"] = float64(c.Hits) / float64(n)
		layer["resultcache.dedups"] = float64(c.Dedups)
	}
	if m.Workers.Batches > 0 {
		layer["service.batch_size_mean"] = float64(m.Workers.TasksRun) / float64(m.Workers.Batches)
	}
}
