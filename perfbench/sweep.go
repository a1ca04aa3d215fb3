package main

import (
	"context"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"rdramstream/internal/engine"
	"rdramstream/internal/sim"
)

// runSweepBatch is the closed-loop core workload: the same batch of
// scenarios through sim.RunAllCtx on an nproc-wide pool, pass after
// pass, each pass checked against the serial reference. A pass is the
// request a sweep user waits on.
func runSweepBatch(cfg *config) (*report, error) {
	type inputs struct {
		scs  []sim.Scenario
		refs []reference
	}
	in, setupS, err := repeatSetup(cfg.setupRepeats(), func() (inputs, error) {
		scs := sweepBatch(cfg.seed)
		refs, err := references(scs)
		return inputs{scs, refs}, err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setupS
	ctx := context.Background()
	if _, err := sim.RunAllCtx(ctx, in.scs, conns); err != nil { // warm the pools
		return nil, err
	}

	var lats []time.Duration
	var effs, stragglers []float64
	var scenarios, cycles int64
	mem := startMem()
	start := time.Now()
	deadline := start.Add(cfg.budget())
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		t0 := time.Now()
		outs, busy, err := sweepPass(ctx, cfg.tr, in.scs)
		lat := time.Since(t0)
		rep.attempted += int64(len(in.scs))
		if err != nil {
			rep.failed += int64(len(in.scs))
			cfg.notef("sweep pass failed: %v", err)
			continue
		}
		bad := sweepMismatches(outs, in.refs)
		for i := range outs {
			cycles += outs[i].Cycles
		}
		rep.failed += bad
		scenarios += int64(len(outs)) - bad
		lats = append(lats, lat)
		if cfg.tr != nil {
			effs = append(effs, float64(busy)/float64(lat*time.Duration(conns)))
			stragglers = append(stragglers, float64(lat-busy/time.Duration(conns))/float64(time.Millisecond))
		}
	}
	wall := time.Since(start)
	_, peak := mem.end()
	alloc, err := steadyAlloc(ctx, in.scs)
	if err != nil {
		return nil, err
	}

	sorted := msOf(lats)
	tailP, tail := tailPercentile(sorted)
	hit, bus, pct := deviceRatios(in.refs)
	m := rep.metrics
	m["scenarios_per_s"] = float64(scenarios) / wall.Seconds()
	m["sim_cycles_per_s"] = float64(cycles) / wall.Seconds()
	m["latency_p50_ms"] = nearestRank(sorted, 50)
	m["alloc_kb_per_scenario"] = alloc
	m["peak_heap_mb"] = float64(peak) / (1 << 20)
	m["sim_pct_peak"] = pct
	m["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
	rep.layer["rdram.page_hit_ratio"] = hit
	rep.layer["rdram.bus_util"] = bus
	if cfg.tr != nil {
		rep.layer["engine.pool_efficiency"] = median(effs)
		rep.layer["engine.straggler_ms"] = median(stragglers)
	}
	cfg.notef("sweep-batch: %d passes of %d scenarios in %.2fs; pass latency p50 %.1f ms, p%.1f %.1f ms (%d samples)",
		len(lats), len(in.scs), wall.Seconds(), m["latency_p50_ms"], tailP, tail, len(lats))
	return rep, nil
}

// sweepPass runs one batch. Untraced it is exactly sim.RunAllCtx;
// traced it is the same pool (engine.MapCtx over sim.Run) with a span
// per scenario under one span for the pass, and it also returns the
// summed per-scenario time.
func sweepPass(ctx context.Context, tr *tracer, scs []sim.Scenario) ([]sim.Outcome, time.Duration, error) {
	if tr == nil {
		outs, err := sim.RunAllCtx(ctx, scs, conns)
		return outs, 0, err
	}
	req := tr.request()
	var outs []sim.Outcome
	var err error
	busy := make([]time.Duration, len(scs))
	tr.do("sim.RunAllCtx", req, 0, func(pass int64) {
		outs, err = engine.MapCtx(ctx, conns, len(scs), func(i int) (sim.Outcome, error) {
			var o sim.Outcome
			var e error
			t0 := time.Now()
			tr.do("sim.Run", req, pass, func(int64) { o, e = sim.Run(scs[i]) })
			busy[i] = time.Since(t0)
			return o, e
		})
	})
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	return outs, total, err
}

// allocPasses is how many extra passes measure the allocation.
const allocPasses = 3

// steadyAlloc is the median over a few extra passes of the bytes
// allocated per scenario (in kB), with the pools kept warm: the passes
// run one scenario at a time with the collector paused, after one
// warming pass. The core recycles its per-run state through sync.Pool,
// which every collection empties and whose reuse across an nproc-wide
// pool depends on which worker draws which scenario; in the timed
// passes those two swing the average by a quarter from run to run. One
// worker with the collector paused measures what the code itself
// allocates per scenario, the same on every run.
func steadyAlloc(ctx context.Context, scs []sim.Scenario) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	per := make([]float64, allocPasses)
	for i := -1; i < allocPasses; i++ {
		metrics.Read(sample)
		a0 := sample[0].Value.Uint64()
		if _, err := sim.RunAllCtx(ctx, scs, 1); err != nil {
			return 0, err
		}
		if i >= 0 {
			metrics.Read(sample)
			per[i] = float64(sample[0].Value.Uint64()-a0) / 1024 / float64(len(scs))
		}
	}
	return median(per), nil
}

// sweepMismatches counts the outcomes of a pass that differ from the
// serial reference.
func sweepMismatches(outs []sim.Outcome, refs []reference) int64 {
	bad := int64(0)
	for i := range outs {
		if outs[i] != refs[i].out {
			bad++
		}
	}
	return bad
}
