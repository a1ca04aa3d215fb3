package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"rdramstream/internal/fabric"
	"rdramstream/internal/service"
	"rdramstream/internal/service/client"
	"rdramstream/internal/sim"
)

// fleet-mix shape: Zipf-skewed draws over a population whose head is
// the Figure-7 grid and whose tail is fault-injected variants, so the
// head hits and the tail misses; a minority of arrivals are sweeps.
const (
	fleetPopulationSize = 2048
	fleetZipfS          = 1.2
	fleetBlock          = 10 // one request in fleetBlock is a sweep
	fleetSweepMin       = 4
	fleetSweepMax       = 16
	fleetSeqLen         = 8192
	fleetWorkers        = 2
)

var fleetPlan = servingPlan{
	refRate: 75,
	rates:   ladder(800, 1.06, 24),
	limitMS: 100,
}

// fleetRequest is one pre-encoded request of the sequence.
type fleetRequest struct {
	sweep bool
	ranks []int // population ranks, in request order
	body  []byte
}

type fleetInputs struct {
	pop  []sim.Scenario
	refs []reference
	seq  []fleetRequest
}

func buildFleetInputs(seed int64) (*fleetInputs, error) {
	pop := fleetPopulation(seed, fleetPopulationSize)
	refs, err := references(pop)
	if err != nil {
		return nil, err
	}
	seq := encodeFleetRequests(pop, drawFleetRequests(seed, len(pop), fleetSeqLen))
	return &fleetInputs{pop: pop, refs: refs, seq: seq}, nil
}

// drawFleetRequests draws the request sequence: Zipf-skewed ranks over
// a population of size popLen. The mix is stratified so every stretch
// of the sequence carries the same work: each block of
// fleetBlock requests holds exactly one sweep at a seeded position,
// and sweep sizes are dealt from a shuffled deck of fleetSweepMin to
// fleetSweepMax. Only the ranks and the order vary with the seed.
func drawFleetRequests(seed int64, popLen, n int) []fleetRequest {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, fleetZipfS, 1, uint64(popLen-1))
	var sizes []int
	seq := make([]fleetRequest, n)
	sweepAt := 0
	for i := range seq {
		if i%fleetBlock == 0 {
			sweepAt = i + rng.Intn(fleetBlock)
		}
		if i != sweepAt {
			seq[i] = fleetRequest{ranks: []int{int(zipf.Uint64())}}
			continue
		}
		if len(sizes) == 0 {
			for _, k := range rng.Perm(fleetSweepMax - fleetSweepMin + 1) {
				sizes = append(sizes, fleetSweepMin+k)
			}
		}
		req := fleetRequest{sweep: true, ranks: make([]int, sizes[0])}
		sizes = sizes[1:]
		for j := range req.ranks {
			req.ranks[j] = int(zipf.Uint64())
		}
		seq[i] = req
	}
	return seq
}

// encodeFleetRequests attaches each request's body: the scenario for a
// simulate, the scenario list for a sweep.
func encodeFleetRequests(pop []sim.Scenario, seq []fleetRequest) []fleetRequest {
	enc := make([][]byte, len(pop))
	for i, sc := range pop {
		enc[i], _ = json.Marshal(sc) // a Scenario always encodes
	}
	for i := range seq {
		if !seq[i].sweep {
			seq[i].body = enc[seq[i].ranks[0]]
			continue
		}
		var b bytes.Buffer
		b.WriteString(`{"scenarios":[`)
		for j, r := range seq[i].ranks {
			if j > 0 {
				b.WriteByte(',')
			}
			b.Write(enc[r])
		}
		b.WriteString("]}")
		seq[i].body = b.Bytes()
	}
	return seq
}

// runFleetMix is the open-loop serving workload: seeded Poisson
// arrivals against a fabric coordinator over two in-process workers.
func runFleetMix(cfg *config) (*report, error) {
	in, setupS, err := repeatSetup(cfg.setupRepeats(), func() (*fleetInputs, error) {
		in, err := buildFleetInputs(cfg.seed)
		if err != nil {
			return nil, err
		}
		f, err := newFleet(in)
		if err != nil {
			return nil, err
		}
		f.stop(map[string]float64{})
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
	failures := &failureLog{}
	err = runServing(cfg, rep, fleetPlan, len(in.seq), func() (target, error) {
		f, err := newFleet(in)
		if err == nil {
			f.failures = failures
		}
		return f, err
	})
	if list, landed := failures.snapshot(); len(list) > 0 {
		cfg.notef("fabric worker failures: %d, %d of them after every row had landed; first: %s", len(list), landed, list[0])
	}
	return rep, err
}

// fleet is one fresh deployment: a coordinator with its own service
// and HTTP front, and fleetWorkers worker services behind HTTP.
type fleet struct {
	in      *fleetInputs
	co      *fabric.Coordinator
	local   *service.Service
	front   *server
	workers []*service.Service
	servers []*server
	cl      *http.Client
	base    fabric.Stats
	// failures, when set, records every failed worker attempt.
	failures *failureLog
}

// failureLog lists failed worker attempts with the rows they had landed.
type failureLog struct {
	mu     sync.Mutex
	list   []string // guarded by mu
	landed int      // guarded by mu; failures after every row landed
}

func (l *failureLog) add(entry string, allLanded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.list = append(l.list, entry)
	if allLanded {
		l.landed++
	}
}

func (l *failureLog) snapshot() ([]string, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.list...), l.landed
}

func newFleet(in *fleetInputs) (*fleet, error) {
	f := &fleet{in: in, cl: loadClient()}
	local, err := newService()
	if err != nil {
		return nil, err
	}
	f.local = local
	f.co, err = fabric.NewCoordinator(fabric.Config{
		Local:          local,
		AttemptTimeout: 30 * time.Second,
		Dial: func(addr string) fabric.Backend {
			cl := client.New(addr)
			cl.Timeout = 30 * time.Second
			return &watchedBackend{Backend: &fabric.ClientBackend{Client: cl}, f: f, addr: addr}
		},
	})
	if err != nil {
		closeService(local)
		return nil, err
	}
	if f.front, err = listen(fabric.Handler(f.co, service.NewHandler(local))); err != nil {
		f.stop(map[string]float64{})
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		w, err := newService()
		if err != nil {
			f.stop(map[string]float64{})
			return nil, err
		}
		f.workers = append(f.workers, w)
		s, err := listen(service.NewHandler(w))
		if err != nil {
			f.stop(map[string]float64{})
			return nil, err
		}
		f.servers = append(f.servers, s)
		if err := f.co.Register(s.url); err != nil {
			f.stop(map[string]float64{})
			return nil, err
		}
	}
	f.base = f.co.Stats()
	return f, nil
}

// watchedBackend records every failed worker attempt and how many rows
// it had delivered, to tell end-of-request cancellations from real
// worker faults.
type watchedBackend struct {
	fabric.Backend
	f    *fleet
	addr string
}

func (b *watchedBackend) Sweep(ctx context.Context, scs []sim.Scenario, fn func(service.SweepLine) error) (service.SweepLine, error) {
	rows := 0
	sum, err := b.Backend.Sweep(ctx, scs, func(l service.SweepLine) error { rows++; return fn(l) })
	if err != nil && b.f.failures != nil {
		b.f.failures.add(fmt.Sprintf("%d/%d rows landed, ctx err %v: %v", rows, len(scs), ctx.Err(), err), rows == len(scs))
	}
	return sum, err
}

func (f *fleet) send(i int, due time.Time, tr *tracer) reply {
	rq := f.in.seq[i]
	id := tr.request()
	req := tr.startAt("request", id, 0, due)
	defer req.end()
	route := "/v1/simulate"
	if rq.sweep {
		route = "/v1/sweep"
	}
	var body []byte
	var err error
	tr.do("http POST "+route, id, req.id(), func(int64) {
		body, err = post(f.cl, f.front.url+route, "application/json", rq.body)
	})
	if err != nil {
		return reply{err: err}
	}
	if !rq.sweep {
		var r simulateReply
		if err := json.Unmarshal(body, &r); err != nil {
			return reply{err: err}
		}
		return f.check(rq.ranks[0], r.Outcome, r.Cached)
	}
	total := reply{}
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var l sweepReply
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return reply{err: err}
		}
		if l.Done {
			if l.Total != len(rq.ranks) || l.Failed != 0 || seen != len(rq.ranks) {
				return reply{err: fmt.Errorf("sweep summary: total %d failed %d after %d rows, want %d rows", l.Total, l.Failed, seen, len(rq.ranks))}
			}
			return total
		}
		if l.Error != "" || l.Index != seen {
			return reply{err: fmt.Errorf("sweep row %d (index %d): %s", seen, l.Index, l.Error)}
		}
		r := f.check(rq.ranks[seen], l.Outcome, l.Cached)
		if r.err != nil {
			return r
		}
		total.scenarios += r.scenarios
		total.cycles += r.cycles
		total.hits += r.hits
		seen++
	}
	return reply{err: fmt.Errorf("sweep stream ended without a summary: %v", sc.Err())}
}

// check compares one served outcome with the local reference.
func (f *fleet) check(rank int, outcome json.RawMessage, cached bool) reply {
	ref := &f.in.refs[rank]
	if !sameBytes(outcome, ref.outcome) {
		return reply{err: fmt.Errorf("%s: %w", f.in.pop[rank].Label(), errMismatch)}
	}
	r := reply{scenarios: 1, cycles: ref.out.Cycles}
	if cached {
		r.hits = 1
	}
	return r
}

// stop folds the phase's counters into the layer figures — fabric
// counters as deltas from the phase start, taken after every request
// has drained; cache figures from the workers, where the hits happen —
// and shuts the deployment down.
func (f *fleet) stop(layer map[string]float64) {
	if f.front != nil {
		f.front.close()
	}
	st := f.co.Stats()
	var hits, misses, dedups, tasks, batches int64
	for _, w := range f.workers {
		m := w.Metrics()
		hits += m.Cache.Hits
		misses += m.Cache.Misses
		dedups += m.Cache.Dedups
		tasks += m.Workers.TasksRun
		batches += m.Workers.Batches
	}
	remote, local := st.RemoteScenarios-f.base.RemoteScenarios, st.LocalScenarios-f.base.LocalScenarios
	if remote+local > 0 {
		layer["fabric.remote_ratio"] = float64(remote) / float64(remote+local)
		layer["fabric.worker_failures"] = float64(st.WorkerFailures - f.base.WorkerFailures)
		layer["fabric.reshards"] = float64(st.Reshards - f.base.Reshards)
	}
	if n := hits + misses + dedups; n > 0 {
		layer["resultcache.hit_ratio"] = float64(hits) / float64(n)
		layer["resultcache.dedups"] = float64(dedups)
	}
	if batches > 0 {
		layer["service.batch_size_mean"] = float64(tasks) / float64(batches)
	}
	f.co.Close()
	for _, s := range f.servers {
		s.close()
	}
	for _, w := range f.workers {
		closeService(w)
	}
	closeService(f.local)
	f.cl.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections() // the workers' clients
}
