package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/fabric"
	"rdramstream/internal/natorder"
	"rdramstream/internal/rdram"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// probeReps is how many times each layer probe repeats a call; the
// per-layer figures are medians over the repeats.
const probeReps = 5

// prober times calls into one layer's public functions from outside,
// one span per call.
type prober struct {
	tr *tracer
}

// time runs fn as its own request under a span named after the layer
// function it calls, and returns the call's duration.
func (p *prober) time(name string, fn func() error) (time.Duration, error) {
	var d time.Duration
	var err error
	p.tr.do(name, p.tr.request(), 0, func(int64) {
		t0 := time.Now()
		err = fn()
		d = time.Since(t0)
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// medianOf repeats a timed call probeReps times and returns the median
// duration in the given unit.
func (p *prober) medianOf(name string, unit time.Duration, fn func() error) (float64, error) {
	ds := make([]time.Duration, probeReps)
	for i := range ds {
		d, err := p.time(name, fn)
		if err != nil {
			return 0, err
		}
		ds[i] = d
	}
	return medianDuration(ds, unit), nil
}

// probeLayers measures every layer on the workload's own inputs where
// the workload reaches that layer, and on the shared core, trace, and
// serving samples where it does not. Figures the workload observed
// itself (cache, fabric, generator) override these afterwards.
func probeLayers(name string, cfg *config) (map[string]float64, error) {
	p := &prober{tr: cfg.tr}
	out := map[string]float64{}
	core := sweepBatch(cfg.seed)
	if err := probeCore(p, core, out); err != nil {
		return nil, err
	}
	traces := make([]traceBody, len(tracePatterns))
	for i, pat := range tracePatterns {
		b, _, err := traceReference(pat, cfg.seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		traces[i] = b
	}
	if err := probeTrace(p, traces, out); err != nil {
		return nil, err
	}
	// The serving sample: the trace scenarios on trace-ingest, the head
	// and first tail of the fleet population elsewhere.
	var sample []sim.Scenario
	var bodies [][]byte
	route := "/v1/simulate"
	if name == "trace-ingest" {
		route = "/v1/trace"
		for _, t := range traces {
			sample = append(sample, t.sc)
			bodies = append(bodies, t.body)
		}
	} else {
		pop := fleetPopulation(cfg.seed, 104)
		sample = append(pop[:4:4], pop[96:]...)
		for _, sc := range sample {
			b, err := json.Marshal(sc)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
	}
	if err := probeServing(p, sample, bodies, route, out); err != nil {
		return nil, err
	}
	if err := probeFabric(p, sample, out); err != nil {
		return nil, err
	}
	// A closed loop has no arrival schedule: it never lags or backs up.
	out["gen.lag_p99_ms"] = 0
	out["gen.backlog_end"] = 0
	return out, nil
}

// probeCore measures the simulation core on the sweep-batch scenarios.
func probeCore(p *prober, scs []sim.Scenario, out map[string]float64) error {
	var build, self []float64
	var smcShort, smcLong, nat wordRate
	var telOn, telOff time.Duration
	for _, sc := range scs {
		k, err := sim.BuildKernel(sc)
		if err != nil {
			return err
		}
		ctlName := "natorder.Run"
		if sc.Mode == sim.SMC {
			ctlName = "smc.Run"
		}
		long := sc.N == longN
		if long {
			// Long vectors weight the controllers only.
			var words int64
			ctl, err := p.medianOf(ctlName, time.Nanosecond, func() error {
				r, err := runController(k, sc)
				words = r.UsefulWords
				return err
			})
			if err != nil {
				return err
			}
			if sc.Mode == sim.SMC {
				smcLong.add(ctl, words)
			} else {
				nat.add(ctl, words)
			}
			continue
		}
		// Short scenarios: sim.Run and its two blocking steps, timed
		// back to back each repeat so drift hits all three alike.
		var runs, builds, ctls []float64
		var words int64
		for i := 0; i < probeReps; i++ {
			run, err := p.time("sim.Run", func() error { _, err := sim.Run(sc); return err })
			if err != nil {
				return err
			}
			b, err := p.time("stream.BuildKernel", func() error { _, err := sim.BuildKernel(sc); return err })
			if err != nil {
				return err
			}
			c, err := p.time(ctlName, func() error {
				r, err := runController(k, sc)
				words = r.UsefulWords
				return err
			})
			if err != nil {
				return err
			}
			runs = append(runs, float64(run))
			builds = append(builds, float64(b))
			ctls = append(ctls, float64(c))
			self = append(self, float64(run-b-c)/1e3)
		}
		run, ctl := median(runs), median(ctls)
		build = append(build, median(builds)/1e3)
		if sc.Mode == sim.SMC {
			smcShort.add(ctl, words)
		} else {
			nat.add(ctl, words)
		}
		// Telemetry cost: the same run with and without a collector.
		on := sc
		on.Telemetry = telemetry.New(telemetry.Options{})
		d, err := p.time("sim.Run+telemetry", func() error { _, err := sim.Run(on); return err })
		if err != nil {
			return err
		}
		telOn += d
		telOff += time.Duration(run)
	}
	out["stream.build_kernel_us"] = median(build)
	out["sim.run_self_us"] = median(self)
	out["smc.ns_per_word_short"] = smcShort.ns()
	out["smc.ns_per_word_long"] = smcLong.ns()
	out["natorder.ns_per_word"] = nat.ns()
	out["telemetry.overhead_ratio"] = float64(telOn) / float64(telOff)

	attempt, err := probeAttempt(p)
	if err != nil {
		return err
	}
	out["rdram.attempt_ns"] = attempt

	// The pool: a few traced passes of the batch through engine.MapCtx.
	var effs, strag []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		_, busy, err := sweepPass(context.Background(), p.tr, scs)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		effs = append(effs, float64(busy)/float64(wall*time.Duration(conns)))
		strag = append(strag, float64(wall-busy/time.Duration(conns))/float64(time.Millisecond))
	}
	out["engine.pool_efficiency"] = median(effs)
	out["engine.straggler_ms"] = median(strag)
	return nil
}

// wordRate sums per-scenario median controller times and useful words.
type wordRate struct {
	total float64
	words int64
}

func (w *wordRate) add(ns float64, words int64) { w.total += ns; w.words += words }
func (w *wordRate) ns() float64                 { return w.total / float64(max(w.words, 1)) }

// probePages recycles device pages across probe runs, as sim.Run's
// own pool does, so the controller probes pay no allocation sim.Run
// would not.
var probePages rdram.PagePool

// runController runs the scenario's controller on a fresh timing-only
// device, the way sim.Run does after building the kernel.
func runController(k *stream.Kernel, sc sim.Scenario) (engine.Result, error) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	dev.UsePagePool(&probePages)
	defer dev.ReleasePages()
	dev.SetTimingOnly(true)
	if sc.Mode == sim.SMC {
		return smc.Run(dev, k, smc.Config{Scheme: sc.Scheme, LineWords: 4, FIFODepth: sc.FIFODepth})
	}
	return natorder.Run(dev, k, natorder.Config{Scheme: sc.Scheme, LineWords: 4})
}

// probeAttempt drives Device.Attempt directly over the packet sequence
// of the long daxpy vector mapped under PI, and returns ns per call.
func probeAttempt(p *prober) (float64, error) {
	k, err := sim.BuildKernel(sim.Scenario{KernelName: "daxpy", N: longN, Scheme: addrmap.PI, Placement: stream.Staggered})
	if err != nil {
		return 0, err
	}
	m, err := addrmap.New(addrmap.PI, rdram.DefaultGeometry(), 4)
	if err != nil {
		return 0, err
	}
	var reqs []rdram.Request
	for i := 0; i < k.Iterations(); i += rdram.WordsPerPacket {
		for _, st := range k.Streams {
			loc := m.Map(st.Addr(i))
			reqs = append(reqs, rdram.Request{Bank: loc.Bank, Row: loc.Row, Col: loc.Col, Write: st.Mode == stream.Write})
		}
	}
	total, err := p.medianOf("rdram.Device.Attempt", time.Nanosecond, func() error {
		dev := rdram.NewDevice(rdram.DefaultConfig())
		dev.SetTimingOnly(true)
		at := int64(0)
		for _, r := range reqs {
			res, ok := dev.Attempt(at, r)
			if !ok {
				return fmt.Errorf("access rejected without a fault injector")
			}
			at = res.ColIssue
		}
		return nil
	})
	return total / float64(len(reqs)), err
}

// probeTrace measures trace decode, digest, and replay.
func probeTrace(p *prober, traces []traceBody, out map[string]float64) error {
	var dec, dig, rep []float64
	for _, t := range traces {
		var accs []workload.TraceAccess
		d, err := p.medianOf("tracegen.Decoder", time.Nanosecond, func() error {
			sc, err := decodeTraceBody(t.body)
			accs = sc.Workload.Accesses
			return err
		})
		if err != nil {
			return err
		}
		dec = append(dec, d/float64(len(accs)+1))
		d, err = p.medianOf("tracegen.DigestOf", time.Microsecond, func() error { tracegen.DigestOf(accs); return nil })
		if err != nil {
			return err
		}
		dig = append(dig, d)
		d, err = p.medianOf("workload.ReplayTrace", time.Nanosecond, func() error {
			dev := rdram.NewDevice(rdram.DefaultConfig())
			dev.SetTimingOnly(true)
			_, err := workload.ReplayTrace(dev, workload.TraceOptions{Scheme: t.sc.Scheme, LineWords: 4, Reorder: true, Window: t.sc.FIFODepth}, accs)
			return err
		})
		if err != nil {
			return err
		}
		rep = append(rep, d/float64(len(accs)))
	}
	out["tracegen.decode_ns_per_line"] = median(dec)
	out["tracegen.digest_us"] = median(dig)
	out["workload.replay_ns_per_access"] = median(rep)
	return nil
}

// probeServing measures the cache and the service in process, then the
// HTTP round trip of the same requests, whose difference is the HTTP
// layer's own time.
func probeServing(p *prober, sample []sim.Scenario, bodies [][]byte, route string, out map[string]float64) error {
	ctx := context.Background()
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		return err
	}
	var keys, hits []float64
	for _, sc := range sample {
		k, err := p.medianOf("resultcache.Key", time.Microsecond, func() error { _, err := resultcache.Key(sc); return err })
		if err != nil {
			return err
		}
		keys = append(keys, k)
		run := func(sc sim.Scenario) (sim.Outcome, error) { return sim.Run(sc) }
		if _, _, err := cache.Do(ctx, sc, run); err != nil {
			return err
		}
		h, err := p.medianOf("resultcache.Cache.Do", time.Microsecond, func() error {
			_, cached, err := cache.Do(ctx, sc, run)
			if err == nil && !cached {
				err = fmt.Errorf("present key missed")
			}
			return err
		})
		if err != nil {
			return err
		}
		hits = append(hits, h)
	}
	out["resultcache.key_us"] = median(keys)
	out["resultcache.hit_us"] = median(hits)

	svc, err := newService()
	if err != nil {
		return err
	}
	defer closeService(svc)
	submitWait := func(sc sim.Scenario) (bool, error) {
		job, err := svc.SubmitOne(ctx, sc)
		if err != nil {
			return false, err
		}
		r, err := job.WaitResult(ctx, 0)
		if err == nil && r.Error != "" {
			err = fmt.Errorf("%s", r.Error)
		}
		return r.Cached, err
	}
	var miss, hit []time.Duration
	for _, sc := range sample {
		for i := 0; i < 2; i++ {
			var cached bool
			d, err := p.time("service.SubmitOne+WaitResult", func() error {
				var err error
				cached, err = submitWait(sc)
				return err
			})
			if err != nil {
				return err
			}
			if cached {
				hit = append(hit, d)
			} else {
				miss = append(miss, d)
			}
		}
	}
	out["service.submit_wait_hit_ms"] = medianDuration(hit, time.Millisecond)
	out["service.submit_wait_miss_ms"] = medianDuration(miss, time.Millisecond)
	m := svc.Metrics()
	out["resultcache.hit_ratio"] = float64(m.Cache.Hits) / float64(max(m.Cache.Hits+m.Cache.Misses+m.Cache.Dedups, 1))
	out["resultcache.dedups"] = float64(m.Cache.Dedups)
	out["service.batch_size_mean"] = float64(m.Workers.TasksRun) / float64(max(m.Workers.Batches, 1))

	// HTTP self time: a warm (cached) request over loopback, minus the
	// in-process layers the handler runs for it — decode, key, and the
	// service round trip.
	srv, err := listen(service.NewHandler(svc))
	if err != nil {
		return err
	}
	defer srv.close()
	cl := loadClient()
	defer cl.CloseIdleConnections()
	var self []float64
	for i, sc := range sample {
		ctype := "application/json"
		if route == "/v1/trace" {
			ctype = "application/x-ndjson"
		}
		rtt, err := p.medianOf("http POST "+route, time.Millisecond, func() error {
			_, err := post(cl, srv.url+route, ctype, bodies[i])
			return err
		})
		if err != nil {
			return err
		}
		inproc, err := p.medianOf("handler layers in process", time.Millisecond, func() error {
			var dsc sim.Scenario
			var err error
			if route == "/v1/trace" {
				dsc, err = decodeTraceBody(bodies[i])
			} else {
				err = json.Unmarshal(bodies[i], &dsc)
			}
			if err != nil {
				return err
			}
			if _, err := resultcache.Key(dsc); err != nil {
				return err
			}
			_, err = submitWait(sc)
			return err
		})
		if err != nil {
			return err
		}
		self = append(self, rtt-inproc)
	}
	out["service.http_self_ms"] = median(self)
	return nil
}

// probeFabric compares a coordinator sweep with a direct ServiceBackend
// sweep of the same (cached) scenarios on a two-worker in-process fleet.
func probeFabric(p *prober, sample []sim.Scenario, out map[string]float64) error {
	ctx := context.Background()
	local, err := newService()
	if err != nil {
		return err
	}
	defer closeService(local)
	var workers []*service.Service
	for i := 0; i < fleetWorkers; i++ {
		w, err := newService()
		if err != nil {
			return err
		}
		defer closeService(w)
		workers = append(workers, w)
	}
	co, err := fabric.NewCoordinator(fabric.Config{
		Local: local,
		Dial: func(addr string) fabric.Backend {
			var i int
			fmt.Sscanf(addr, "http://worker%d", &i)
			return &fabric.ServiceBackend{Svc: workers[i]}
		},
	})
	if err != nil {
		return err
	}
	defer co.Close()
	for i := range workers {
		if err := co.Register(fmt.Sprintf("http://worker%d", i)); err != nil {
			return err
		}
	}
	base := co.Stats()
	coordSweep := func(first *time.Duration) error {
		t0 := time.Now()
		sw, err := co.StartSweep(ctx, sample)
		if err != nil {
			return err
		}
		for i := range sample {
			l, err := sw.Wait(ctx, i)
			if err != nil {
				return err
			}
			if l.Error != "" {
				return fmt.Errorf("%s", l.Error)
			}
			if i == 0 && first != nil {
				*first = time.Since(t0)
			}
		}
		return nil
	}
	if err := coordSweep(nil); err != nil { // fill the workers' caches
		return err
	}
	direct := &fabric.ServiceBackend{Svc: workers[0]}
	directSweep := func() error {
		_, err := direct.Sweep(ctx, sample, func(service.SweepLine) error { return nil })
		return err
	}
	if err := directSweep(); err != nil {
		return err
	}
	var firsts []time.Duration
	coord, err := p.medianOf("fabric.Coordinator.StartSweep", time.Millisecond, func() error {
		var f time.Duration
		err := coordSweep(&f)
		firsts = append(firsts, f)
		return err
	})
	if err != nil {
		return err
	}
	dir, err := p.medianOf("fabric.ServiceBackend.Sweep", time.Millisecond, directSweep)
	if err != nil {
		return err
	}
	out["fabric.self_ms"] = coord - dir
	out["fabric.first_row_ms"] = medianDuration(firsts, time.Millisecond)
	st := co.Stats()
	remote, local2 := st.RemoteScenarios-base.RemoteScenarios, st.LocalScenarios-base.LocalScenarios
	out["fabric.remote_ratio"] = float64(remote) / float64(max(remote+local2, 1))
	out["fabric.worker_failures"] = float64(st.WorkerFailures - base.WorkerFailures)
	out["fabric.reshards"] = float64(st.Reshards - base.Reshards)
	return nil
}
