package workload_test

import (
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/engine"
	"rdramstream/internal/rdram"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// These tests check the §6 Crisp effects on the path the Crisp table
// runs: a seeded tracegen phase over 1/8 of the channel, replayed in
// trace order.

type replayed struct {
	pct, hitRate float64 // % of peak counting every transferred word
	res          engine.Result
}

func replayPhase(t *testing.T, devices int, scheme addrmap.Scheme, ph tracegen.Phase) replayed {
	t.Helper()
	cfg := rdram.DefaultConfig()
	cfg.Geometry.Banks *= devices
	cfg.Geometry.DevicesOnChannel = devices
	mapper, err := addrmap.New(scheme, cfg.Geometry, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Accesses == 0 {
		ph.Accesses = 4000
	}
	ph.FootprintWords = mapper.CapacityWords() / 8
	accs, err := (&tracegen.Program{Seed: 11, Phases: []tracegen.Phase{ph}}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return replay(t, cfg, scheme, accs)
}

func replay(t *testing.T, cfg rdram.Config, scheme addrmap.Scheme, accs []workload.TraceAccess) replayed {
	t.Helper()
	res, err := workload.ReplayTrace(rdram.NewDevice(cfg), workload.TraceOptions{Scheme: scheme, LineWords: 4}, accs)
	if err != nil {
		t.Fatal(err)
	}
	return replayed{
		pct:     engine.PercentOfPeak(res.TransferredWords, res.Cycles, cfg.Timing.CyclesPerWordPeak()),
		hitRate: res.Device.HitRate(),
		res:     res,
	}
}

var (
	random  = tracegen.Phase{Pattern: tracegen.PatternChase, BurstWords: 1, WriteFraction: 0.25}
	hotRows = tracegen.Phase{Pattern: tracegen.PatternHotRow, BurstWords: 1, WriteFraction: 0.25, HotRows: 8}
)

func TestSequentialPIRunsNearPeak(t *testing.T) {
	// A pure sequential sweep with an open-page policy is the best case:
	// page hits dominate and the bus streams.
	r := replayPhase(t, 1, addrmap.PI, tracegen.Phase{Pattern: tracegen.PatternStrided, Accesses: 16000, BurstWords: 4})
	if r.pct < 90 {
		t.Errorf("sequential PI = %.1f%%, want near peak", r.pct)
	}
	if r.hitRate < 0.9 {
		t.Errorf("hit rate = %.2f", r.hitRate)
	}
}

func TestRandomSingleDeviceIsMediocre(t *testing.T) {
	// Uniform random lines on one device: every access is a page miss and
	// consecutive ACTs often hit t_RR/t_RC — well below peak.
	r := replayPhase(t, 1, addrmap.CLI, random)
	if r.pct > 85 {
		t.Errorf("random single-device = %.1f%%, expected clearly below peak", r.pct)
	}
	if r.hitRate > 0.6 {
		t.Errorf("random hit rate = %.2f, expected low", r.hitRate)
	}
}

func TestManyDevicesLiftRandomEfficiency(t *testing.T) {
	// The §6/Crisp effect: the same random pattern over a well-populated
	// channel regains most of the bus ("a memory system composed of these
	// chips has been observed to operate near 95% efficiency").
	single := replayPhase(t, 1, addrmap.CLI, random)
	many := replayPhase(t, 8, addrmap.CLI, random)
	if many.pct <= single.pct+5 {
		t.Errorf("8-device random %.1f%% should clearly beat single-device %.1f%%", many.pct, single.pct)
	}
	if many.pct < 80 {
		t.Errorf("8-device random = %.1f%%, expected high efficiency", many.pct)
	}
}

func TestHotPagesBenefitFromOpenPagePolicy(t *testing.T) {
	hot := replayPhase(t, 1, addrmap.PI, hotRows)
	uniform := replayPhase(t, 1, addrmap.PI, random)
	if hot.hitRate <= uniform.hitRate {
		t.Errorf("hot-page hit rate %.2f should exceed uniform %.2f", hot.hitRate, uniform.hitRate)
	}
	if hot.pct <= uniform.pct {
		t.Errorf("hot pages %.1f%% should beat uniform %.1f%% under open-page", hot.pct, uniform.pct)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func(seed int64) int64 {
		accs, err := (&tracegen.Program{Seed: seed, Phases: []tracegen.Phase{random}}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return replay(t, rdram.DefaultConfig(), addrmap.PI, accs).res.Cycles
	}
	if run(42) != run(42) {
		t.Error("same seed produced different runs")
	}
	if run(42) == run(43) {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestReplaySequentialTraceStreams(t *testing.T) {
	accs := make([]workload.TraceAccess, 4096)
	for i := range accs {
		accs[i].Addr = int64(i)
	}
	r := replay(t, rdram.DefaultConfig(), addrmap.PI, accs)
	// 4096 word touches = 1024 distinct lines, absorbed spatially.
	if lines := r.res.TransferredWords / 4; lines != 1024 {
		t.Errorf("lines = %d, want 1024", lines)
	}
	if r.pct < 90 {
		t.Errorf("sequential replay = %.1f%%", r.pct)
	}
}

func TestReplayAlternatingWriteReadPaysTurnarounds(t *testing.T) {
	// A pathological trace alternating write and read lines forces a bus
	// turnaround per pair — well below the sequential read rate.
	alt := make([]workload.TraceAccess, 1024)
	reads := make([]workload.TraceAccess, 1024)
	for i := range alt {
		alt[i] = workload.TraceAccess{Addr: int64(i) * 4, Write: i%2 == 0}
		reads[i] = workload.TraceAccess{Addr: int64(i) * 4}
	}
	a := replay(t, rdram.DefaultConfig(), addrmap.PI, alt)
	r := replay(t, rdram.DefaultConfig(), addrmap.PI, reads)
	if a.pct >= r.pct {
		t.Errorf("alternating W/R (%.1f%%) should trail pure reads (%.1f%%)", a.pct, r.pct)
	}
	if a.res.Device.Retires == 0 {
		t.Error("expected retire activity from the alternation")
	}
}
