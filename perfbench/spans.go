package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the span that caused this one (0 for a request's root).
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allocates a request ID (0 when tracing is off).
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// do runs fn inside a span named name, child of parent within request
// req, and returns the span's ID for fn's own children.
func (t *tracer) do(name string, req, parent int64, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	id := t.ids.Add(1)
	start := time.Since(t.epoch)
	fn(id)
	t.add(span{name: name, id: id, parent: parent, req: req, start: start, end: time.Since(t.epoch)})
}

// active is an open span; a nil active (tracing off) ignores end.
type active struct {
	t *tracer
	s span
}

// startAt opens a span that began at the given time — a request's due
// time, say, which precedes any call made for it.
func (t *tracer) startAt(name string, req, parent int64, at time.Time) *active {
	if t == nil {
		return nil
	}
	return &active{t: t, s: span{name: name, id: t.ids.Add(1), parent: parent, req: req, start: at.Sub(t.epoch)}}
}

// id is the span's ID, for its children (0 when tracing is off).
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.id
}

// end closes the span now.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.end = time.Since(a.t.epoch)
	a.t.add(a.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return selfTimes(spans)
}

func selfTimes(spans []span) map[string][]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.name] = append(out[s.name], s.end-s.start-covered(s, children[s.id]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a JSON file chrome://tracing loads:
// one row per request, each span carrying its ID and parent.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		b, err := json.Marshal(chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.req,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(b)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
