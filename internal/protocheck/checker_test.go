package protocheck

import (
	"math/rand"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/natorder"
	"rdramstream/internal/rdram"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

// runTraced executes a kernel through the natural-order controller or the
// SMC under the given policy and returns the recorded events.
func runTraced(t *testing.T, cfg rdram.Config, scheme addrmap.Scheme, useSMC bool, pol smc.Policy, k *stream.Kernel) []rdram.TraceEvent {
	t.Helper()
	dev := rdram.NewDevice(cfg)
	var rec rdram.Recorder
	dev.Trace = rec.Hook()
	var err error
	if useSMC {
		_, err = smc.Run(dev, k, smc.Config{Scheme: scheme, LineWords: 4, FIFODepth: 32, Policy: pol})
	} else {
		_, err = natorder.Run(dev, k, natorder.Config{Scheme: scheme, LineWords: 4})
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events
}

func TestSimulatorTracesObeyProtocol(t *testing.T) {
	cfg := rdram.DefaultConfig()
	controllers := []struct {
		useSMC bool
		pol    smc.Policy
	}{{false, smc.RoundRobin}, {true, smc.RoundRobin}, {true, smc.BankAware}, {true, smc.HitFirst}}
	for _, f := range stream.Benchmarks {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, c := range controllers {
				bases := stream.MustLayout(scheme, cfg.Geometry, 4, f.Footprints(256, 1), stream.Staggered)
				k := f.Make(bases, 256, 1)
				events := runTraced(t, cfg, scheme, c.useSMC, c.pol, k)
				if len(events) == 0 {
					t.Fatalf("%s/%v smc=%v %v: empty trace", f.Name, scheme, c.useSMC, c.pol)
				}
				viols := NewChecker(cfg).Check(events)
				for _, v := range viols {
					t.Errorf("%s/%v smc=%v %v: %v", f.Name, scheme, c.useSMC, c.pol, v)
				}
			}
		}
	}
}

// Every generated trace pattern, replayed in trace order and reordered,
// must obey the protocol: this is the path posted and generated traces
// take through the service.
func TestReplayTracesObeyProtocol(t *testing.T) {
	cfg := rdram.DefaultConfig()
	for _, pattern := range []string{tracegen.PatternStrided, tracegen.PatternChase, tracegen.PatternHotRow, tracegen.PatternLLMKV} {
		accs, err := (&tracegen.Program{Seed: 5, Phases: []tracegen.Phase{{Pattern: pattern, Accesses: 2048, WriteFraction: 0.25}}}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, reorder := range []bool{false, true} {
				dev := rdram.NewDevice(cfg)
				var rec rdram.Recorder
				dev.Trace = rec.Hook()
				if _, err := workload.ReplayTrace(dev, workload.TraceOptions{Scheme: scheme, LineWords: 4, Reorder: reorder}, accs); err != nil {
					t.Fatal(err)
				}
				if len(rec.Events) == 0 {
					t.Fatalf("%s/%v reorder=%v: empty trace", pattern, scheme, reorder)
				}
				for _, v := range NewChecker(cfg).Check(rec.Events) {
					t.Errorf("%s/%v reorder=%v: %v", pattern, scheme, reorder, v)
				}
			}
		}
	}
}

func TestChannelTracesObeyProtocol(t *testing.T) {
	cfg := rdram.DefaultConfig()
	cfg.Geometry.Banks = 32
	cfg.Geometry.DevicesOnChannel = 4
	bases := stream.MustLayout(addrmap.CLI, cfg.Geometry, 4, []int64{512, 512, 512}, stream.Staggered)
	k := stream.Sum(bases[0], bases[1], bases[2], 512, 1)
	dev := rdram.NewDevice(cfg)
	var rec rdram.Recorder
	dev.Trace = rec.Hook()
	if _, err := smc.Run(dev, k, smc.Config{Scheme: addrmap.CLI, LineWords: 4, FIFODepth: 64}); err != nil {
		t.Fatal(err)
	}
	for _, v := range NewChecker(cfg).Check(rec.Events) {
		t.Error(v)
	}
}

func TestAlignedConflictHeavyTracesObeyProtocol(t *testing.T) {
	cfg := rdram.DefaultConfig()
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		f, _ := stream.FactoryByName("vaxpy")
		bases := stream.MustLayout(scheme, cfg.Geometry, 4, f.Footprints(512, 3), stream.Aligned)
		k := f.Make(bases, 512, 3)
		events := runTraced(t, cfg, scheme, true, smc.RoundRobin, k)
		for _, v := range NewChecker(cfg).Check(events) {
			t.Errorf("%v: %v", scheme, v)
		}
	}
}

func TestRandomDeviceWorkloadObeysProtocol(t *testing.T) {
	cfg := rdram.DefaultConfig()
	dev := rdram.NewDevice(cfg)
	var rec rdram.Recorder
	dev.Trace = rec.Hook()
	rng := rand.New(rand.NewSource(321))
	now := int64(0)
	for i := 0; i < 3000; i++ {
		res := dev.Do(now, rdram.Request{
			Bank:          rng.Intn(8),
			Row:           rng.Intn(64),
			Col:           rng.Intn(64),
			Write:         rng.Intn(4) == 0,
			AutoPrecharge: rng.Intn(3) == 0,
		})
		if rng.Intn(5) == 0 {
			now = res.DataEnd
		}
	}
	viols := NewChecker(cfg).Check(rec.Events)
	if len(viols) > 0 {
		t.Fatalf("%d violations, first: %v", len(viols), viols[0])
	}
}

func TestCheckerFlagsViolations(t *testing.T) {
	cfg := rdram.DefaultConfig()
	c := NewChecker(cfg)
	mk := func(kind rdram.TraceKind, start int64, bank int) rdram.TraceEvent {
		return rdram.TraceEvent{Kind: kind, Start: start, End: start + 4, Bank: bank}
	}
	cases := []struct {
		name   string
		rule   string
		events []rdram.TraceEvent
	}{
		{"tRR same chip", "tRR", []rdram.TraceEvent{
			mk(rdram.TraceActivate, 0, 0), mk(rdram.TraceActivate, 4, 1),
		}},
		{"tRC same bank", "tRC", []rdram.TraceEvent{
			mk(rdram.TraceActivate, 0, 0),
			mk(rdram.TracePrecharge, 24, 0),
			mk(rdram.TraceActivate, 33, 0), // < tRC = 34 after the first ACT
		}},
		{"tRCD", "tRCD", []rdram.TraceEvent{
			mk(rdram.TraceActivate, 0, 0), mk(rdram.TraceReadCol, 5, 0),
		}},
		{"tRAS", "tRAS", []rdram.TraceEvent{
			mk(rdram.TraceActivate, 0, 0), mk(rdram.TracePrecharge, 10, 0),
		}},
		{"tRP", "tRP", []rdram.TraceEvent{
			mk(rdram.TraceActivate, 0, 0),
			mk(rdram.TracePrecharge, 24, 0),
			mk(rdram.TraceActivate, 30, 0),
		}},
		{"col on closed bank", "col-on-closed", []rdram.TraceEvent{
			mk(rdram.TraceReadCol, 0, 0),
		}},
		{"act on open bank", "act-on-open", []rdram.TraceEvent{
			mk(rdram.TraceActivate, 0, 0), mk(rdram.TraceActivate, 40, 0),
		}},
		{"data overlap", "data-bus-overlap", []rdram.TraceEvent{
			mk(rdram.TraceReadData, 0, 0), mk(rdram.TraceReadData, 2, 1),
		}},
		{"turnaround", "tRW", []rdram.TraceEvent{
			mk(rdram.TraceWriteData, 0, 0), mk(rdram.TraceReadData, 5, 1),
		}},
		{"pre on closed", "pre-on-closed", []rdram.TraceEvent{
			mk(rdram.TracePrecharge, 0, 0),
		}},
		{"row bus overlap", "row-bus-overlap", []rdram.TraceEvent{
			mk(rdram.TraceActivate, 0, 0), {Kind: rdram.TraceActivate, Start: 2, End: 6, Bank: 4},
		}},
	}
	for _, tc := range cases {
		viols := c.Check(tc.events)
		found := false
		for _, v := range viols {
			if v.Rule == tc.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: rule %q not flagged (got %v)", tc.name, tc.rule, viols)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "tRW", Detail: "x"}
	if !strings.Contains(v.String(), "tRW") {
		t.Error("bad violation string")
	}
}

func TestSummarize(t *testing.T) {
	cfg := rdram.DefaultConfig()
	f, _ := stream.FactoryByName("daxpy")
	bases := stream.MustLayout(addrmap.CLI, cfg.Geometry, 4, f.Footprints(256, 1), stream.Staggered)
	k := f.Make(bases, 256, 1)
	events := runTraced(t, cfg, addrmap.CLI, true, smc.RoundRobin, k)
	s := Summarize(events)
	if s.Cycles <= 0 || s.DataBusy <= 0 || s.DataBusUtil <= 0 || s.DataBusUtil > 1 {
		t.Errorf("bad summary: %+v", s)
	}
	// daxpy moves 256 elements x 3 streams / 2 words per packet packets.
	if s.ReadPackets+s.WritePackets != 384 {
		t.Errorf("packets = %d, want 384", s.ReadPackets+s.WritePackets)
	}
	if s.WritePackets != 128 {
		t.Errorf("write packets = %d, want 128", s.WritePackets)
	}
	if s.Turnarounds < 1 {
		t.Error("expected at least one bus turnaround")
	}
	if s.MeanBurstLen <= 1 {
		t.Errorf("mean burst %v, expected bursty schedule", s.MeanBurstLen)
	}
	// 384 packets over 2-packet lines = 192 line activations, plus a few
	// re-activations when another FIFO's burst conflicts on a bank between
	// the two packets of a line.
	if s.Activates < 192 || s.Activates > 220 {
		t.Errorf("activates = %d, want 192..220", s.Activates)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Cycles != 0 || s.DataBusUtil != 0 || s.MeanBurstLen != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}
