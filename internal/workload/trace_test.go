package workload

import (
	"math/rand"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
)

// scatteredTrace builds a trace that ping-pongs between rows — the
// worst case for in-order open-page service and the best case for
// row-hit-first reordering.
func scatteredTrace(n int) []TraceAccess {
	rng := rand.New(rand.NewSource(11))
	accs := make([]TraceAccess, 0, n)
	for i := 0; i < n; i++ {
		row := rng.Int63n(64)
		accs = append(accs, TraceAccess{Addr: row*128 + rng.Int63n(32)*4, Write: rng.Float64() < 0.2})
	}
	return accs
}

// With Reorder off, ReplayTrace must keep the schedule of the legacy
// text-trace Replay loop it replaced: same coalescing, same issue
// discipline, same cycle. The golden stats are that loop's output on
// this trace, so any drift in the in-order path shows here.
func TestReplayTraceMatchesReplay(t *testing.T) {
	golden := map[addrmap.Scheme]rdram.Stats{
		addrmap.CLI: {Activates: 2048, Precharges: 2048, Reads: 3288, Writes: 808, PageHits: 2048, PageMisses: 2048,
			Retires: 325, DataBusBusy: 16384, LastDataEnd: 28790},
		addrmap.PI: {Activates: 1787, Precharges: 1779, Reads: 3288, Writes: 808, PageHits: 2309, PageMisses: 1787,
			PageConflicts: 1779, Retires: 325, DataBusBusy: 16384, LastDataEnd: 31460},
	}
	for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
		got, err := ReplayTrace(rdram.NewDevice(rdram.DefaultConfig()), TraceOptions{Scheme: scheme, LineWords: 4}, scatteredTrace(2048))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != golden[scheme].LastDataEnd {
			t.Errorf("%v: ReplayTrace %d cycles, golden %d", scheme, got.Cycles, golden[scheme].LastDataEnd)
		}
		if got.Device != golden[scheme] {
			t.Errorf("%v: device stats diverge:\n  got    %+v\n  golden %+v", scheme, got.Device, golden[scheme])
		}
	}
}

// Reordering moves the same data — identical transferred words and
// device read/write packet counts — and must not be slower than trace
// order on a row-scattered open-page workload (that is its only job).
func TestReplayTraceReorder(t *testing.T) {
	accs := scatteredTrace(4096)
	d1 := rdram.NewDevice(rdram.DefaultConfig())
	natural, err := ReplayTrace(d1, TraceOptions{Scheme: addrmap.PI, LineWords: 4}, accs)
	if err != nil {
		t.Fatal(err)
	}
	d2 := rdram.NewDevice(rdram.DefaultConfig())
	reordered, err := ReplayTrace(d2, TraceOptions{Scheme: addrmap.PI, LineWords: 4, Reorder: true, Window: 32}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if natural.TransferredWords != reordered.TransferredWords {
		t.Errorf("transferred words diverge: natural %d, reordered %d", natural.TransferredWords, reordered.TransferredWords)
	}
	if natural.Device.Reads != reordered.Device.Reads || natural.Device.Writes != reordered.Device.Writes {
		t.Errorf("packet counts diverge: natural %+v, reordered %+v", natural.Device, reordered.Device)
	}
	if reordered.Cycles > natural.Cycles {
		t.Errorf("reordering slowed the replay: %d > %d cycles", reordered.Cycles, natural.Cycles)
	}
	if reordered.Device.PageHits <= natural.Device.PageHits {
		t.Errorf("reordering found no extra page hits: %d vs %d", reordered.Device.PageHits, natural.Device.PageHits)
	}
}

// Under CLI auto-precharge there are no open rows to chase: the
// reordering scheduler must degenerate to exact trace order.
func TestReplayTraceReorderDegeneratesUnderCLI(t *testing.T) {
	accs := scatteredTrace(1024)
	d1 := rdram.NewDevice(rdram.DefaultConfig())
	natural, err := ReplayTrace(d1, TraceOptions{Scheme: addrmap.CLI, LineWords: 4}, accs)
	if err != nil {
		t.Fatal(err)
	}
	d2 := rdram.NewDevice(rdram.DefaultConfig())
	reordered, err := ReplayTrace(d2, TraceOptions{Scheme: addrmap.CLI, LineWords: 4, Reorder: true}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if natural.Cycles != reordered.Cycles || natural.Device != reordered.Device {
		t.Errorf("CLI reorder diverged from trace order: %d vs %d cycles", reordered.Cycles, natural.Cycles)
	}
}

func TestReplayTraceValidation(t *testing.T) {
	dev := rdram.NewDevice(rdram.DefaultConfig())
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4}, nil); err == nil {
		t.Error("expected error for empty trace")
	}
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 3}, []TraceAccess{{Addr: 0}}); err == nil {
		t.Error("expected error for bad line size")
	}
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4, Outstanding: rdram.MaxOutstanding + 1}, []TraceAccess{{Addr: 0}}); err == nil {
		t.Error("expected error for oversized pipeline depth")
	}
	if _, err := ReplayTrace(dev, TraceOptions{Scheme: addrmap.PI, LineWords: 4}, []TraceAccess{{Addr: 1 << 60}}); err == nil {
		t.Error("expected error for out-of-range address")
	}
}
