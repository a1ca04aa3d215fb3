package rdramstream_test

import (
	"math"
	"testing"

	"rdramstream"
)

func TestFacadeQuickstart(t *testing.T) {
	out, err := rdramstream.Simulate(rdramstream.Scenario{
		KernelName: "daxpy",
		N:          1024,
		Scheme:     rdramstream.PI,
		Mode:       rdramstream.SMC,
		FIFODepth:  128,
		Placement:  rdramstream.Staggered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Error("quickstart run should verify")
	}
	if out.PercentPeak < 85 {
		t.Errorf("PercentPeak = %.1f, want near peak", out.PercentPeak)
	}
}

func TestFacadeKernelsList(t *testing.T) {
	ks := rdramstream.Kernels()
	want := map[string]bool{"copy": true, "daxpy": true, "hydro": true, "vaxpy": true}
	if len(ks) != len(want) {
		t.Fatalf("Kernels() = %v", ks)
	}
	for _, k := range ks {
		if !want[k] {
			t.Errorf("unexpected kernel %q", k)
		}
	}
}

func TestFacadeCustomKernel(t *testing.T) {
	// A custom two-stream kernel: y[i] = sqrt(x[i]).
	bases, err := rdramstream.LayoutVectors(rdramstream.CLI, rdramstream.Staggered, []int64{256, 256})
	if err != nil {
		t.Fatal(err)
	}
	k := &rdramstream.Kernel{
		Name: "sqrt",
		Streams: []rdramstream.Stream{
			{Name: "x", Base: bases[0], Stride: 1, Length: 256, Mode: rdramstream.Read},
			{Name: "y", Base: bases[1], Stride: 1, Length: 256, Mode: rdramstream.Write},
		},
		Compute: func(_ int, in []float64) []float64 {
			return []float64{math.Sqrt(in[0])}
		},
	}
	out, err := rdramstream.SimulateKernel(k, rdramstream.Scenario{
		Scheme: rdramstream.CLI, Mode: rdramstream.SMC, FIFODepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verified {
		t.Error("custom kernel should verify")
	}
	if out.UsefulWords != 512 {
		t.Errorf("UsefulWords = %d, want 512", out.UsefulWords)
	}
}

func TestFacadeBounds(t *testing.T) {
	b := rdramstream.DefaultBounds()
	if got := b.TLCC(); got != 24 {
		t.Errorf("TLCC = %v", got)
	}
	if dev := rdramstream.DefaultDevice(); dev.Geometry.Banks != 8 {
		t.Errorf("default banks = %d", dev.Geometry.Banks)
	}
}

func TestFacadeNaturalOrderVsSMC(t *testing.T) {
	base := rdramstream.Scenario{KernelName: "vaxpy", N: 1024, Scheme: rdramstream.CLI, Placement: rdramstream.Staggered}
	nat := base
	nat.Mode = rdramstream.NaturalOrder
	smcSc := base
	smcSc.Mode = rdramstream.SMC
	smcSc.FIFODepth = 128
	n, err := rdramstream.Simulate(nat)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rdramstream.Simulate(smcSc)
	if err != nil {
		t.Fatal(err)
	}
	if s.PercentPeak <= n.PercentPeak {
		t.Errorf("SMC %.1f%% should beat natural order %.1f%%", s.PercentPeak, n.PercentPeak)
	}
}

// TestSimulateAllocBudget pins the steady-state heap allocations of one
// Simulate call once the per-run scratch pools are warm. The ceilings are
// the counts of the event-driven core; the long vector's 24 is the core's
// allocation budget, and the long natural-order copy's 18 holds only with
// no per-run store map on a timing-only device. Wall time is gated by the
// benchmark harness (BENCHMARK.json); allocation counts are exact, so they
// gate here.
func TestSimulateAllocBudget(t *testing.T) {
	cases := []struct {
		name string
		sc   rdramstream.Scenario
		max  float64
	}{
		{"copy n=1024 CLI SMC fifo 128", rdramstream.Scenario{
			KernelName: "copy", N: 1024, Scheme: rdramstream.CLI,
			Mode: rdramstream.SMC, FIFODepth: 128,
			Placement: rdramstream.Staggered, SkipVerify: true,
		}, 22},
		{"daxpy n=1024 PI natural", rdramstream.Scenario{
			KernelName: "daxpy", N: 1024, Scheme: rdramstream.PI,
			Mode:      rdramstream.NaturalOrder,
			Placement: rdramstream.Staggered, SkipVerify: true,
		}, 21},
		{"copy n=65536 CLI natural", rdramstream.Scenario{
			KernelName: "copy", N: 65536, Scheme: rdramstream.CLI,
			Mode:      rdramstream.NaturalOrder,
			Placement: rdramstream.Staggered, SkipVerify: true,
		}, 18},
		{"daxpy n=65536 PI SMC fifo 128", rdramstream.Scenario{
			KernelName: "daxpy", N: 65536, Scheme: rdramstream.PI,
			Mode: rdramstream.SMC, FIFODepth: 128,
			Placement: rdramstream.Staggered, SkipVerify: true,
		}, 24},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := rdramstream.Simulate(c.sc); err != nil {
				t.Fatal(err)
			}
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				if _, e := rdramstream.Simulate(c.sc); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > c.max {
				t.Errorf("%.0f allocs per Simulate, budget %.0f", allocs, c.max)
			}
			t.Logf("%.0f allocs per Simulate (budget %.0f)", allocs, c.max)
		})
	}
}
