package engine

import (
	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/stream"
	"rdramstream/internal/telemetry"
)

// Peek reads one word from device storage through the mapper without
// advancing time — the functional read every controller uses to merge
// unmodified words into line- or packet-granularity writes.
func Peek(dev *rdram.Device, m *addrmap.Mapper, addr int64) uint64 {
	loc := m.Map(addr)
	return dev.PeekWord(loc.Bank, loc.Row, loc.Col, loc.Word)
}

// StoreValues functionally executes the kernel over device memory and
// returns every word it stores — the data a timing controller transmits
// on its write transactions. Loads read the stored values first, so
// loop-carried values are seen; unwritten addresses read current device
// contents. On a timing-only device (rdram.Device.TimingOnly) nothing the
// kernel computes would be kept, so StoreValues does no work and returns
// nil; PacketData then yields zero packets.
func StoreValues(dev *rdram.Device, m *addrmap.Mapper, k *stream.Kernel) map[int64]uint64 {
	if dev.TimingOnly() {
		return nil
	}
	// At most iterations × write-streams distinct words are stored; sizing
	// the map up front avoids rehash churn on long streams.
	vals := make(map[int64]uint64, k.Iterations()*k.WriteStreams())
	k.Replay(
		func(addr int64) uint64 {
			if v, ok := vals[addr]; ok {
				return v
			}
			return Peek(dev, m, addr)
		},
		func(addr int64, v uint64) { vals[addr] = v },
	)
	return vals
}

// PacketData gathers the write data of the packet starting at word
// address addr: each word's value in stores, else current device
// contents (read-merge of words the kernel never stores). Nil stores — a
// timing-only run, or a trace replay, whose writes carry no data — give a
// zero packet.
//
// rdlint:hotpath
func PacketData(dev *rdram.Device, m *addrmap.Mapper, stores map[int64]uint64, addr int64) [rdram.WordsPerPacket]uint64 {
	var data [rdram.WordsPerPacket]uint64
	if stores == nil {
		return data
	}
	for w := range data {
		a := addr + int64(w)
		if v, ok := stores[a]; ok {
			data[w] = v
		} else {
			data[w] = Peek(dev, m, a)
		}
	}
	return data
}

// Attach wires a telemetry collector to the device and declares the
// controller's default idle cause, returning the controller probe (nil
// collector returns nil, and the nil-safe probes make that free). Any
// controller built on the engine gets device counters and stall
// attribution through this one call.
func Attach(dev *rdram.Device, col *telemetry.Collector, idle telemetry.StallCause) *telemetry.ControllerProbe {
	if col == nil {
		return nil
	}
	dev.Telemetry = col.Device
	col.Device.SetIdleCause(idle)
	return col.Controller
}

// Window models the device's bounded pipeline of outstanding transactions
// (the Direct RDRAM supports four): a transaction may not be presented
// before the one `limit` positions back has completed. Completion times
// live in a fixed ring of limit entries — only the last limit matter, and
// the append-forever slice this replaced grew with the run length.
type Window struct {
	done []int64 // ring: done[n%limit] completed transaction n-limit
	n    int     // transactions completed so far
}

// NewWindow builds a window admitting up to limit concurrent transactions;
// limit must be positive.
func NewWindow(limit int) *Window {
	if limit <= 0 {
		panic("engine: Window limit must be positive")
	}
	return &Window{done: make([]int64, limit)}
}

// Admit returns the earliest time a new transaction may be presented, no
// earlier than at.
func (w *Window) Admit(at int64) int64 {
	if w.n >= len(w.done) {
		at = max(at, w.done[w.n%len(w.done)])
	}
	return at
}

// Complete records an admitted transaction's completion time. Calls must
// be in admission order.
func (w *Window) Complete(t int64) {
	w.done[w.n%len(w.done)] = t
	w.n++
}
