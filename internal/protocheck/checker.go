// Package protocheck analyzes recorded device traces: it validates that every
// packet sequence obeys the Direct RDRAM protocol rules of the paper's
// Figure 2 (an independent oracle for the simulators), and extracts
// utilization statistics from the same events.
//
// The checker is deliberately written against the *trace*, not the device
// implementation, so a scheduling bug that both produces and accepts an
// illegal schedule is still caught.
package protocheck

import (
	"fmt"
	"sort"

	"rdramstream/internal/rdram"
)

// Violation describes one protocol rule broken by a trace.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Checker validates traces against a timing/geometry configuration.
type Checker struct {
	T rdram.Timing
	G rdram.Geometry
}

// NewChecker builds a checker for the given device configuration.
func NewChecker(cfg rdram.Config) *Checker {
	return &Checker{T: cfg.Timing, G: cfg.Geometry}
}

// Check validates the events and returns every violation found (nil when
// the trace is clean). The rules enforced:
//
//   - ACT packets never overlap on the ROW bus, and COL-bus packets
//     (RD/WR) never overlap. Background PRER packets are exempt from bus
//     occupancy (see the device model's precharge-overlap note) but still
//     subject to bank-state rules.
//   - DATA packets never overlap.
//   - t_RR between consecutive ACT packets to the same chip.
//   - t_RC between consecutive ACT packets to the same bank.
//   - t_RAS between a bank's ACT and its next PRER.
//   - t_RP between a bank's PRER and its next ACT.
//   - t_RCD between a bank's ACT and its first subsequent COL packet.
//   - t_RW between the end of a write DATA packet and the start of the
//     next read DATA packet (shared-bus turnaround).
//   - every COL RD/WR targets a bank whose row was activated and not yet
//     precharged.
func (c *Checker) Check(events []rdram.TraceEvent) []Violation {
	evs := make([]rdram.TraceEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })

	var out []Violation
	add := func(rule, format string, args ...any) {
		out = append(out, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}

	type bankView struct {
		open      bool
		lastAct   int64
		lastPre   int64
		everActed bool
		everPre   bool
	}
	banks := make([]bankView, c.G.Banks)
	lastChipAct := make([]int64, c.G.Devices())
	chipActed := make([]bool, c.G.Devices())

	var lastActEnd, lastColEnd, lastDataEnd int64 = -1, -1, -1
	var lastWriteDataEnd int64 = -1

	chipOf := func(bank int) int { return bank / c.G.BanksPerDevice() }

	for _, ev := range evs {
		switch ev.Kind {
		case rdram.TraceActivate:
			if ev.Start < lastActEnd {
				add("row-bus-overlap", "ACT at %d overlaps previous ACT ending %d", ev.Start, lastActEnd)
			}
			lastActEnd = ev.End
			chip := chipOf(ev.Bank)
			if chipActed[chip] && ev.Start < lastChipAct[chip]+int64(c.T.TRR) {
				add("tRR", "ACT bank %d at %d within tRR of chip %d's ACT at %d", ev.Bank, ev.Start, chip, lastChipAct[chip])
			}
			lastChipAct[chip] = ev.Start
			chipActed[chip] = true

			b := &banks[ev.Bank]
			if b.everActed && ev.Start < b.lastAct+int64(c.T.TRC) {
				add("tRC", "ACT bank %d at %d within tRC of its ACT at %d", ev.Bank, ev.Start, b.lastAct)
			}
			if b.open {
				add("act-on-open", "ACT bank %d at %d while row still open", ev.Bank, ev.Start)
			}
			if b.everPre && ev.Start < b.lastPre+int64(c.T.TRP) {
				add("tRP", "ACT bank %d at %d within tRP of PRER at %d", ev.Bank, ev.Start, b.lastPre)
			}
			b.open = true
			b.lastAct = ev.Start
			b.everActed = true

		case rdram.TracePrecharge:
			b := &banks[ev.Bank]
			if !b.open {
				add("pre-on-closed", "PRER bank %d at %d while closed", ev.Bank, ev.Start)
			}
			if b.everActed && ev.Start < b.lastAct+int64(c.T.TRAS()) {
				add("tRAS", "PRER bank %d at %d within tRAS of ACT at %d", ev.Bank, ev.Start, b.lastAct)
			}
			b.open = false
			b.lastPre = ev.Start
			b.everPre = true

		case rdram.TraceReadCol, rdram.TraceWriteCol:
			if ev.Start < lastColEnd {
				add("col-bus-overlap", "COL at %d overlaps previous ending %d", ev.Start, lastColEnd)
			}
			lastColEnd = ev.End
			b := &banks[ev.Bank]
			if !b.open {
				add("col-on-closed", "COL bank %d at %d while row closed", ev.Bank, ev.Start)
			}
			if ev.Start < b.lastAct+int64(c.T.TRCD) {
				add("tRCD", "COL bank %d at %d within tRCD of ACT at %d", ev.Bank, ev.Start, b.lastAct)
			}

		case rdram.TraceRetire:
			// Informational: retire cost is folded into t_RW.

		case rdram.TraceReadData:
			if ev.Start < lastDataEnd {
				add("data-bus-overlap", "read DATA at %d overlaps previous ending %d", ev.Start, lastDataEnd)
			}
			if lastWriteDataEnd >= 0 && ev.Start < lastWriteDataEnd+int64(c.T.TRW) {
				add("tRW", "read DATA at %d within tRW of write DATA end %d", ev.Start, lastWriteDataEnd)
			}
			lastDataEnd = ev.End

		case rdram.TraceWriteData:
			if ev.Start < lastDataEnd {
				add("data-bus-overlap", "write DATA at %d overlaps previous ending %d", ev.Start, lastDataEnd)
			}
			lastDataEnd = ev.End
			lastWriteDataEnd = ev.End
		}
	}
	return out
}

// Summary aggregates bus occupancy and protocol activity from a trace.
type Summary struct {
	Cycles       int64 // end of the last packet
	RowBusy      int64 // cycles of ACT packets (background PRERs excluded)
	ColBusy      int64 // cycles of RD/WR packets
	DataBusy     int64 // cycles of DATA packets
	Activates    int64
	Precharges   int64
	ReadPackets  int64
	WritePackets int64
	Turnarounds  int64   // write->read direction changes on the DATA bus
	LargestGap   int64   // longest idle stretch on the DATA bus
	DataBusUtil  float64 // DataBusy / Cycles
	MeanBurstLen float64 // mean consecutive same-direction DATA packets
}

// Summarize computes the summary for a trace.
func Summarize(events []rdram.TraceEvent) Summary {
	evs := make([]rdram.TraceEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })

	var s Summary
	var lastDataEnd int64 = -1
	lastWasWrite := false
	started := false
	var bursts, burstLen int64
	var totalBurstLen int64
	for _, ev := range evs {
		if ev.End > s.Cycles {
			s.Cycles = ev.End
		}
		switch ev.Kind {
		case rdram.TraceActivate:
			s.Activates++
			s.RowBusy += ev.End - ev.Start
		case rdram.TracePrecharge:
			s.Precharges++
		case rdram.TraceReadCol, rdram.TraceWriteCol:
			s.ColBusy += ev.End - ev.Start
		case rdram.TraceReadData, rdram.TraceWriteData:
			isWrite := ev.Kind == rdram.TraceWriteData
			if isWrite {
				s.WritePackets++
			} else {
				s.ReadPackets++
			}
			s.DataBusy += ev.End - ev.Start
			if lastDataEnd >= 0 {
				if gap := ev.Start - lastDataEnd; gap > s.LargestGap {
					s.LargestGap = gap
				}
			}
			if started && lastWasWrite && !isWrite {
				s.Turnarounds++
			}
			if started && isWrite == lastWasWrite {
				burstLen++
			} else {
				if started {
					bursts++
					totalBurstLen += burstLen
				}
				burstLen = 1
			}
			lastWasWrite = isWrite
			started = true
			lastDataEnd = ev.End
		}
	}
	if started {
		bursts++
		totalBurstLen += burstLen
	}
	if s.Cycles > 0 {
		s.DataBusUtil = float64(s.DataBusy) / float64(s.Cycles)
	}
	if bursts > 0 {
		s.MeanBurstLen = float64(totalBurstLen) / float64(bursts)
	}
	return s
}
