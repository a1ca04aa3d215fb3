package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"time"

	"rdramstream/internal/service"
)

// server is an in-process HTTP server on a loopback port.
type server struct {
	url string
	srv *http.Server
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}}
	go s.srv.Serve(ln)
	return s, nil
}

// close drains in-flight requests, then stops the server.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
}

// newService starts a service with an nproc-wide worker pool.
func newService() (*service.Service, error) {
	return service.New(service.Config{Workers: conns})
}

func closeService(s *service.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Close(ctx)
}

// loadClient is the load generator's HTTP client: at most conns
// connections to any server.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// post sends one request and returns the whole response body; any
// status but 200 is an error.
func post(cl *http.Client, url, ctype string, body []byte) ([]byte, error) {
	resp, err := cl.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// phaseRNG is the seeded generator of one named phase's schedule, so a
// phase's arrivals depend only on the seed and the phase.
func phaseRNG(seed int64, phase string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, phase)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// servingPlan fixes how a serving workload spends a run: one phase at
// the reference rate, then a bisection over the rate ladder against
// the p99 limit.
type servingPlan struct {
	refRate float64
	rates   []float64
	limitMS float64
}

// target is what one serving phase runs against: a fresh deployment
// (cold caches, zeroed counters) and the request it sends.
type target interface {
	send(i int, due time.Time, tr *tracer) reply
	// stop drains in-flight work, folds the deployment's counters into
	// the layer figures, and shuts it down.
	stop(layer map[string]float64)
}

// runServing runs a serving workload's phases and fills the end-to-end
// metrics. deploy starts a fresh deployment for a phase; seqLen bounds
// the request sequence the phases index into.
func runServing(cfg *config, rep *report, plan servingPlan, seqLen int, deploy func() (target, error)) error {
	var firstErr error
	phaseOf := func(name string, rate float64, d time.Duration, tr *tracer, layer map[string]float64) (*phase, error) {
		n := min(max(int(rate*d.Seconds()), 1), seqLen)
		dues := poissonDues(phaseRNG(cfg.seed, name), n, rate)
		t, err := deploy()
		if err != nil {
			return nil, err
		}
		ph := runOpenLoop(conns, rate, dues, func(i int, due time.Time) reply { return t.send(i, due, tr) })
		t.stop(layer)
		rep.attempted += ph.attempted
		rep.failed += ph.failed
		if ph.firstErr != nil && firstErr == nil {
			firstErr = ph.firstErr
		}
		return ph, nil
	}

	budget := cfg.budget()
	mem := startMem()
	ref, err := phaseOf("reference", plan.refRate, budget*2/3, cfg.tr, rep.layer)
	if err != nil {
		return err
	}
	alloc, peak := mem.end()
	p50, tailP, tail, windows := windowedLatency(ref)
	m := rep.metrics
	m["scenarios_per_s"] = float64(ref.scenarios) / ref.wall.Seconds()
	m["sim_cycles_per_s"] = float64(ref.cycles) / ref.wall.Seconds()
	m["latency_p50_ms"] = p50
	m["alloc_kb_per_scenario"] = float64(alloc) / 1024 / float64(max(ref.scenarios, 1))
	m["peak_heap_mb"] = float64(peak) / (1 << 20)
	if len(ref.lags) > 0 {
		_, rep.layer["gen.lag_p99_ms"] = tailPercentile(msOf(ref.lags))
	}
	rep.layer["gen.backlog_end"] = float64(ref.backlogEnd)
	cfg.notef("reference %.0f/s: %d requests, median over %d windows of p50 %.2f ms and p%.1f %.2f ms (%d samples), backlog at end %d, cached responses %d/%d scenarios",
		plan.refRate, ref.attempted, windows, p50, tailP, tail, len(ref.latencies), ref.backlogEnd, ref.hits, ref.scenarios)

	// The traced run compares one phase with and without spans; the
	// ladder belongs to the untraced run.
	if !cfg.short {
		// Bisection probes about log2(len(rates)) rungs, a couple of them
		// twice; together they get the third of the budget the reference
		// phase leaves.
		probes := bits.Len(uint(len(plan.rates))) + 2
		rungTime := budget / 3 / time.Duration(probes)
		rung := 0
		good, probed := searchLadder(plan.rates, plan.limitMS, func(rate float64) *phase {
			rung++
			ph, err := phaseOf(fmt.Sprintf("rung-%d", rung), rate, rungTime, nil, map[string]float64{})
			if err != nil {
				return &phase{failed: 1, firstErr: err}
			}
			return ph
		})
		for _, v := range probed {
			cfg.notef("ladder %.1f/s: p99 %.2f ms (limit %.0f), backlog grew %v, generator lag p99 %.3f ms, meets %v",
				v.rate, v.p99ms, plan.limitMS, v.grew, v.lagMS, v.ok)
		}
		cfg.notef("goodput %.1f/s: the highest ladder rate meeting p99 <= %g ms with no growing backlog", good, plan.limitMS)
	}
	m["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
	if firstErr != nil {
		cfg.notef("first failure: %v", firstErr)
	}
	return nil
}

// windowSamples is the fewest latencies a window holds: with 150, its
// tail percentile is p93 or higher. maxWindows caps the split.
const (
	windowSamples = 150
	maxWindows    = 15
)

// windowedLatency splits a phase into consecutive windows
// by due time — as many as keep windowSamples each, at most maxWindows — and
// returns the median across windows of each window's p50 and tail
// percentile, so one burst of host noise moves one window, not the
// figure. It also returns the tail percentile used and the window count.
func windowedLatency(ph *phase) (p50, tailP, tail float64, windows int) {
	n := len(ph.latencies)
	windows = max(1, min(maxWindows, n/windowSamples))
	var p50s, tails []float64
	for w := 0; w < windows; w++ {
		part := msOf(ph.latencies[w*n/windows : (w+1)*n/windows])
		p50s = append(p50s, nearestRank(part, 50))
		var v float64
		tailP, v = tailPercentile(part)
		tails = append(tails, v)
	}
	return median(p50s), tailP, median(tails), windows
}
