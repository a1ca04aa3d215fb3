package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/fault"
	"rdramstream/internal/protocheck"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
)

// faultScenarios is the sweep shape of cmd/sweep -faults: every controller
// and scheme under one fault config.
func faultScenarios(fc *fault.Config) []Scenario {
	var scs []Scenario
	for _, kn := range []string{"copy", "daxpy"} {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, ctl := range []string{"natural-order", "smc", "conventional"} {
				scs = append(scs, Scenario{
					KernelName: kn, N: 256, Scheme: scheme, Controller: ctl,
					Placement: stream.Staggered, Seed: 3, Fault: fc,
				})
			}
		}
	}
	return scs
}

// TestZeroSeverityBitIdentical is the acceptance criterion for the no-fault
// path: attaching fault.Scaled(seed, 0) must be invisible — byte-identical
// outcomes to running with no fault config at all.
func TestZeroSeverityBitIdentical(t *testing.T) {
	zero := fault.Scaled(99, 0)
	clean, err := RunAll(faultScenarios(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := RunAll(faultScenarios(&zero), 1)
	if err != nil {
		t.Fatal(err)
	}
	cleanCSV, cleanJSON := renderOutcomes(t, clean)
	faultCSV, faultJSON := renderOutcomes(t, faulted)
	if !bytes.Equal(cleanCSV, faultCSV) || !bytes.Equal(cleanJSON, faultJSON) {
		t.Error("severity-0 fault config changed the results")
	}
}

// TestFaultRunsDeterministicAcrossWorkers: same fault seed ⇒ byte-identical
// results, serial vs 2/4/8 workers (each scenario owns its injector, so
// scheduling cannot perturb the fault sequence).
func TestFaultRunsDeterministicAcrossWorkers(t *testing.T) {
	fc := fault.Scaled(42, 3)
	serial, err := RunAll(faultScenarios(&fc), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantJSON := renderOutcomes(t, serial)
	for _, workers := range []int{2, 4, 8} {
		par, err := RunAll(faultScenarios(&fc), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotCSV, gotJSON := renderOutcomes(t, par)
		if !bytes.Equal(wantCSV, gotCSV) {
			t.Errorf("workers=%d: CSV differs from serial fault run", workers)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("workers=%d: JSON differs from serial fault run", workers)
		}
	}
}

// TestFaultDegradesNotCorrupts: under moderate faults every controller
// still completes, still verifies functionally, and pays for the injected
// interference in bandwidth, with the injection visible in the counters.
func TestFaultDegradesNotCorrupts(t *testing.T) {
	fc := fault.Scaled(7, 2)
	clean, err := RunAll(faultScenarios(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := RunAll(faultScenarios(&fc), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawRejection, sawJitter bool
	for i := range faulted {
		if !faulted[i].Verified {
			t.Fatalf("scenario %d: fault run not verified", i)
		}
		if faulted[i].PercentPeak > clean[i].PercentPeak {
			t.Errorf("scenario %d: faulted percent-peak %.2f exceeds clean %.2f",
				i, faulted[i].PercentPeak, clean[i].PercentPeak)
		}
		sawRejection = sawRejection || faulted[i].Device.Rejections > 0
		sawJitter = sawJitter || faulted[i].Device.JitterCycles > 0
	}
	if !sawRejection || !sawJitter {
		t.Errorf("fault counters silent: rejections=%v jitter=%v", sawRejection, sawJitter)
	}
}

// TestWatchdogAbortsWedgedController is the acceptance criterion for the
// watchdog: a device that rejects every access wedges the SMC's retry loop,
// and the run must abort with a diagnostic dump, not hang.
func TestWatchdogAbortsWedgedController(t *testing.T) {
	_, err := Run(Scenario{
		KernelName: "copy", N: 64, Mode: SMC, Placement: stream.Staggered,
		Fault:         &fault.Config{Seed: 1, RejectProb: 1},
		WatchdogLimit: 4096,
	})
	var we *engine.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *engine.WatchdogError", err)
	}
	if we.Dump == "" {
		t.Fatal("watchdog fired without a state dump")
	}
	// The dump carries the event-queue diagnostics: the scheduler's next
	// wake-up and the device's next event, so a quiet-queue wedge (every
	// access rejected, nothing left to wake for) is visible at a glance.
	for _, want := range []string{"read fifo", "rejects", "device:", "wakeup=", "nextEvent="} {
		if !strings.Contains(we.Dump, want) {
			t.Errorf("dump missing %q:\n%s", want, we.Dump)
		}
	}
}

// TestFaultRejectionAfterJump: a transient rejection puts the MSU to sleep
// until its retry backoff, and it re-presents on the first cycle after
// that jump — where the injector must draw again, exactly once per
// presentation. Heavy rejection probability exercises many jump-then-draw
// boundaries; the run must complete, verify, and be byte-identical on a
// repeat (the draw discipline of 4 draws per access is what keeps the
// sequences aligned).
func TestFaultRejectionAfterJump(t *testing.T) {
	sc := Scenario{
		KernelName: "daxpy", N: 256, Scheme: addrmap.PI, Mode: SMC,
		FIFODepth: 16, Placement: stream.Staggered, Seed: 9,
		Fault: &fault.Config{Seed: 21, RejectProb: 0.8},
	}
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Verified {
		t.Fatal("heavy-rejection run did not verify")
	}
	if first.Device.Rejections == 0 {
		t.Fatal("RejectProb=0.8 produced no rejections")
	}
	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	aCSV, aJSON := renderOutcomes(t, []Outcome{first})
	bCSV, bJSON := renderOutcomes(t, []Outcome{second})
	if !bytes.Equal(aCSV, bCSV) || !bytes.Equal(aJSON, bJSON) {
		t.Error("repeated heavy-rejection run is not byte-identical")
	}
}

// TestRejectionLoopAbortsNatOrder: the straight-line controllers bound the
// same wedge through engine.Issue's attempt cap instead of the watchdog.
func TestRejectionLoopAbortsNatOrder(t *testing.T) {
	for _, ctl := range []string{"natural-order", "conventional"} {
		_, err := Run(Scenario{
			KernelName: "copy", N: 64, Controller: ctl, Placement: stream.Staggered,
			Fault: &fault.Config{Seed: 1, RejectProb: 1},
		})
		var re *engine.RejectError
		if !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want *engine.RejectError", ctl, err)
		}
	}
}

// panicController wedges the registry with a controller that panics midway,
// standing in for a future controller bug during a sweep.
type panicController struct{}

func (panicController) Name() string { return "test-panics" }

func (panicController) Run(*rdram.Device, *stream.Kernel, engine.Options) (engine.Result, error) {
	panic("controller bug")
}

func init() { engine.Register(panicController{}) }

// TestSweepIsolatesPanickingScenario: one panicking job fails the sweep
// with an error naming the scenario; it does not crash the process, and
// the same (lowest-index) error surfaces at every worker count.
func TestSweepIsolatesPanickingScenario(t *testing.T) {
	scs := faultScenarios(nil)[:6]
	scs[3].Controller = "test-panics"
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := RunAll(scs, workers)
		if err == nil {
			t.Fatalf("workers=%d: no error from panicking scenario", workers)
		}
		if !strings.Contains(err.Error(), "scenario 3") || !strings.Contains(err.Error(), scs[3].Label()) {
			t.Fatalf("workers=%d: error does not name the scenario: %v", workers, err)
		}
		var pe *engine.PanicError
		if !errors.As(err, &pe) || pe.Index != 3 {
			t.Fatalf("workers=%d: err = %v, want wrapped *engine.PanicError index 3", workers, err)
		}
		// The failing index and message are deterministic across worker
		// counts; only the recovery stack trace may differ, so compare the
		// first line.
		first, _, _ := strings.Cut(err.Error(), "\n")
		if want == "" {
			want = first
		} else if first != want {
			t.Errorf("workers=%d: error %q differs from serial %q", workers, first, want)
		}
	}
}

// TestRefreshInsideIdleSpan: with no faults at all, periodic refreshes
// landing inside the spans the event-driven MSU skips (FIFO full, CPU
// catching up) must still be charged by the device's catch-up path, keep
// the packet schedule protocol-legal, and leave the memory image correct.
// A timing-only (SkipVerify) run of the same scenario must report the
// identical cycle count: refresh catch-up cannot depend on the store.
func TestRefreshInsideIdleSpan(t *testing.T) {
	dev := rdram.DefaultConfig()
	dev.RefreshInterval = 800
	sc := Scenario{
		KernelName: "copy", N: 512, Scheme: addrmap.PI, Mode: SMC,
		FIFODepth: 8, Placement: stream.Staggered, Seed: 13, Device: dev,
	}
	var events []rdram.TraceEvent
	withTrace := sc
	withTrace.Trace = func(ev rdram.TraceEvent) { events = append(events, ev) }
	out, err := Run(withTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Fatal("not verified")
	}
	if out.Device.Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
	if viols := protocheck.NewChecker(dev).Check(events); len(viols) > 0 {
		t.Errorf("%d protocol violations; first: %v", len(viols), viols[0])
	}
	skip := sc
	skip.SkipVerify = true
	bare, err := Run(skip)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Cycles != out.Cycles || bare.Device.Refreshes != out.Device.Refreshes {
		t.Errorf("timing-only run diverged: cycles %d vs %d, refreshes %d vs %d",
			bare.Cycles, out.Cycles, bare.Device.Refreshes, out.Device.Refreshes)
	}
}

// TestRefreshDuringSMCDrain: refresh storms landing mid-FIFO-drain must
// still produce a protocol-legal packet schedule (trace checker clean) and
// a correct memory image. This pins the refresh × drain-policy interaction
// the fault layer newly exercises.
func TestRefreshDuringSMCDrain(t *testing.T) {
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		var events []rdram.TraceEvent
		dev := rdram.DefaultConfig()
		dev.RefreshInterval = 512 // frequent enough to land inside drains
		out, err := Run(Scenario{
			KernelName: "daxpy", N: 512, Scheme: scheme, Mode: SMC,
			FIFODepth: 32, Placement: stream.Staggered, Seed: 11,
			Device: dev,
			Fault:  &fault.Config{Seed: 5, StormEvery: 2, StormBurst: 4, StormGap: 64},
			Trace:  func(ev rdram.TraceEvent) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !out.Verified {
			t.Fatalf("%s: not verified", scheme)
		}
		if out.Device.Refreshes == 0 {
			t.Fatalf("%s: no refreshes recorded", scheme)
		}
		cfg := dev
		if viols := protocheck.NewChecker(cfg).Check(events); len(viols) > 0 {
			t.Errorf("%s: %d protocol violations under refresh storms; first: %v", scheme, len(viols), viols[0])
		}
	}
}

// FuzzScenarioValidate: Validate must classify arbitrary scenarios without
// panicking, and anything it accepts must actually run (or fail with an
// error, never a panic).
func FuzzScenarioValidate(f *testing.F) {
	f.Add("copy", 64, int64(1), 0, 4, 32, int64(0))
	f.Add("daxpy", 256, int64(2), 1, 8, 8, int64(4096))
	f.Add("vaxpy", 16, int64(4), 0, 4, 16, int64(1))
	f.Add("hydro", 1, int64(1), 1, 12, 4, int64(0))
	f.Add("", 0, int64(0), 9, 0, 0, int64(-1))
	f.Add("no-such", -5, int64(-3), 2, 3, 1, int64(-7))
	f.Add("copy", 1<<20, int64(1<<40), 0, 4, 32, int64(0))
	f.Fuzz(func(t *testing.T, kernel string, n int, stride int64, scheme, lineWords, fifoDepth int, wd int64) {
		sc := Scenario{
			KernelName: kernel, N: n, Stride: stride,
			Scheme: addrmap.Scheme(scheme), LineWords: lineWords,
			FIFODepth: fifoDepth, WatchdogLimit: wd,
		}
		err := sc.Validate()
		if err != nil {
			return // rejected at the boundary, as designed
		}
		// Accepted scenarios must never panic deeper in the stack.
		if n > 4096 || stride > 64 {
			t.Skip("accepted but too large to simulate in fuzz time")
		}
		if _, err := Run(sc); err != nil {
			// Runtime errors (e.g. layout capacity) are fine; panics are not,
			// and the fuzzer catches those itself.
			t.Logf("run error: %v", err)
		}
	})
}
