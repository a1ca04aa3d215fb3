// Command perfbench is the repository's benchmark: one command runs a
// named workload against the simulator core or its serving tier, checks
// every output against a local reference, and prints the workload's
// metrics as one JSON object on its last line of output.
//
//	perfbench --workload sweep-batch --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same seed
// with spans recorded around every call into a layer and prints the
// per-layer metrics instead, writing the spans as a chrome://tracing
// file under --out. BENCHMARK.json at the repository root lists the
// workloads and metrics; LEGACY.md maps the older BENCH_*.json figures
// onto them.
//
// The default seed is 1. Seed 4242 is held out: nothing tuned against
// this benchmark, the benchmark itself included, has been run on it, so
// a claimed gain can be confirmed there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed a run uses unless told otherwise; heldOutSeed
// is kept back for confirming a claim on inputs nobody tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 4242
)

// conns is the load's concurrency: at most nproc requests in flight and
// every in-process worker pool nproc wide.
var conns = runtime.NumCPU()

// unit is a metric's name and unit as BENCHMARK.json declares them.
type unit struct{ name, unit string }

// endToEnd are the metrics a user sees, printed by every untraced run.
// The tail latency and the goodput are measured too and printed in the
// run's notes, but not gated: on a shared two-core host they follow the
// host's capacity, which moved by up to half within minutes.
var endToEnd = []unit{
	{"setup_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"sim_cycles_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_kb_per_scenario", "kB"},
	{"peak_heap_mb", "MB"},
	{"sim_pct_peak", "%"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of single layers, printed by traced runs.
var perLayer = []unit{
	{"sim.run_self_us", "us"},
	{"stream.build_kernel_us", "us"},
	{"smc.ns_per_word_long", "ns"},
	{"smc.ns_per_word_short", "ns"},
	{"natorder.ns_per_word", "ns"},
	{"rdram.attempt_ns", "ns"},
	{"rdram.page_hit_ratio", "ratio"},
	{"rdram.bus_util", "ratio"},
	{"engine.pool_efficiency", "ratio"},
	{"engine.straggler_ms", "ms"},
	{"telemetry.overhead_ratio", "ratio"},
	{"tracegen.decode_ns_per_line", "ns"},
	{"tracegen.digest_us", "us"},
	{"workload.replay_ns_per_access", "ns"},
	{"resultcache.key_us", "us"},
	{"resultcache.hit_us", "us"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.dedups", "count"},
	{"service.submit_wait_hit_ms", "ms"},
	{"service.submit_wait_miss_ms", "ms"},
	{"service.batch_size_mean", "count"},
	{"service.http_self_ms", "ms"},
	{"fabric.self_ms", "ms"},
	{"fabric.first_row_ms", "ms"},
	{"fabric.remote_ratio", "ratio"},
	{"fabric.worker_failures", "count"},
	{"fabric.reshards", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.backlog_end", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// bench is one named benchmark workload.
type bench struct {
	name string
	// run measures the workload for the configured time and returns its
	// end-to-end metrics; with cfg.tr set it records spans as it goes.
	run func(cfg *config) (*report, error)
	// primary picks the end-to-end figure the traced run compares with
	// the untraced one, and whether higher is better.
	primary      string
	higherBetter bool
}

var workloads = []bench{
	{name: "sweep-batch", run: runSweepBatch, primary: "scenarios_per_s", higherBetter: true},
	{name: "trace-ingest", run: runTraceIngest, primary: "latency_p50_ms"},
	{name: "fleet-mix", run: runFleetMix, primary: "latency_p50_ms"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	tr      *tracer // nil: spans off
	// short asks for the traced run's shorter phases: it measures the
	// workload twice (without and with spans) and probes every layer,
	// all within one run's time.
	short bool
	notes []string
}

func (c *config) notef(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// budget is the measuring time of a run, split by the traced run.
func (c *config) budget() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.short {
		d /= 3
	}
	return d
}

// setupRepeats is how many times a run sets up: the median of three
// steadies setup_s; the traced run sets up once per measurement.
func (c *config) setupRepeats() int {
	if c.short {
		return 1
	}
	return 3
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	// layer holds per-layer figures the workload itself observed.
	layer map[string]float64
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, layer: map[string]float64{}}
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep-batch, trace-ingest or fleet-mix")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (%d is held out for confirming claims)", heldOutSeed))
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1: record spans and print the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's chrome://tracing file")
	flag.Parse()

	var w *bench
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := &config{seed: *seed, seconds: *seconds}
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, cfg, *out)
	} else {
		res, err = runPlain(w, cfg)
	}
	for _, n := range cfg.notes {
		fmt.Println("#", n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runPlain is the untraced run: the end-to-end metrics.
func runPlain(w *bench, cfg *config) (result, error) {
	rep, err := w.run(cfg)
	if err != nil {
		return result{}, err
	}
	return finish(rep, endToEnd, rep.metrics)
}

// runTraced measures the workload without and then with spans on the
// same seed, probes every layer, and prints the per-layer metrics with
// the tracing overhead between the two measurements.
func runTraced(w *bench, cfg *config, outDir string) (result, error) {
	cfg.short = true
	plain, err := w.run(cfg)
	if err != nil {
		return result{}, err
	}
	cfg.tr = newTracer()
	traced, err := w.run(cfg)
	if err != nil {
		return result{}, err
	}
	layer, err := probeLayers(w.name, cfg)
	if err != nil {
		return result{}, err
	}
	for k, v := range traced.layer {
		layer[k] = v
	}
	a, b := plain.metrics[w.primary], traced.metrics[w.primary]
	if w.higherBetter {
		a, b = b, a
	}
	layer["bench.trace_overhead_ratio"] = b / a
	path := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-%d.trace.json", w.name, cfg.seed))
	if err := cfg.tr.writeChrome(path); err != nil {
		return result{}, err
	}
	cfg.notef("spans: %d written to %s", cfg.tr.count(), path)
	self := cfg.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cfg.notef("self time %-32s median %.3f ms over %d spans", n, medianDuration(self[n], time.Millisecond), len(self[n]))
	}
	rep := &report{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	return finish(rep, perLayer, layer)
}

// finish shapes the printed result; every listed metric must be there.
func finish(rep *report, want []unit, got map[string]float64) (result, error) {
	res := result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]value, len(want)),
	}
	var missing []string
	for _, u := range want {
		v, ok := got[u.name]
		if !ok {
			missing = append(missing, u.name)
			continue
		}
		res.Metrics[u.name] = value{Value: v, Unit: u.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return result{}, fmt.Errorf("metrics not measured: %v", missing)
	}
	if rep.attempted < 1 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// repeatSetup runs a workload's set-up n times and keeps the last
// result; the median of the n times is the run's setup_s.
func repeatSetup[T any](n int, fn func() (T, error)) (T, float64, error) {
	var v T
	times := make([]float64, n)
	for i := range times {
		t0 := time.Now()
		var err error
		if v, err = fn(); err != nil {
			return v, 0, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	return v, median(times), nil
}

// memWindow measures the memory side of a measured window: bytes
// allocated process-wide, and the highest in-use heap, sampled every
// few milliseconds.
type memWindow struct {
	startAlloc uint64
	stop       chan struct{}
	done       sync.WaitGroup
	peak       uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startMem() *memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &memWindow{startAlloc: ms.TotalAlloc, stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			m.peak = max(m.peak, sample[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// end stops the window and returns the bytes allocated and the peak
// in-use heap in bytes.
func (m *memWindow) end() (alloc, peak uint64) {
	close(m.stop)
	m.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - m.startAlloc, m.peak
}
