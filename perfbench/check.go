package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"rdramstream/internal/resultcache"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
)

// errMismatch marks an output that differs from its reference. A
// mismatch is a failed operation, never a skipped one.
var errMismatch = errors.New("output differs from the local reference")

// sameBytes reports whether a served (possibly indented) JSON value is
// byte-identical to want after compaction.
func sameBytes(served json.RawMessage, want []byte) bool {
	var b bytes.Buffer
	if err := json.Compact(&b, served); err != nil {
		return false
	}
	return bytes.Equal(b.Bytes(), want)
}

// reference is the local answer for one scenario, computed serially at
// set-up: the outcome, and its compact wire encoding that a served
// outcome must equal byte for byte once whitespace is removed.
type reference struct {
	out     sim.Outcome
	outcome []byte
}

func referenceOf(sc sim.Scenario) (reference, error) {
	out, err := sim.Run(sc)
	if err != nil {
		return reference{}, fmt.Errorf("reference run %s: %w", sc.Label(), err)
	}
	b, err := json.Marshal(out)
	return reference{out: out, outcome: b}, err
}

// references runs every scenario serially, in order.
func references(scs []sim.Scenario) ([]reference, error) {
	refs := make([]reference, len(scs))
	for i, sc := range scs {
		r, err := referenceOf(sc)
		if err != nil {
			return nil, err
		}
		refs[i] = r
	}
	return refs, nil
}

// decodeTraceBody decodes a POST /v1/trace body into the scenario the
// server replays, the same way the handler does: the service header,
// then exactly the declared access lines.
func decodeTraceBody(body []byte) (sim.Scenario, error) {
	dec := tracegen.NewDecoder(bytes.NewReader(body))
	var hdr service.TraceHeader
	if err := dec.DecodeHeader(&hdr); err != nil {
		return sim.Scenario{}, err
	}
	accs, err := dec.ReadAccesses(hdr.Accesses)
	if err != nil {
		return sim.Scenario{}, err
	}
	sc := hdr.Scenario
	sc.Workload = &tracegen.Spec{Accesses: accs}
	return sc, nil
}

// traceReference pre-encodes one trace and computes what the server
// must answer for it: the content key of the locally decoded trace and
// the outcome of a local run.
func traceReference(pattern string, seed int64) (traceBody, reference, error) {
	name, body, err := encodeTrace(pattern, seed)
	if err != nil {
		return traceBody{}, reference{}, err
	}
	sc, err := decodeTraceBody(body)
	if err != nil {
		return traceBody{}, reference{}, err
	}
	key, err := resultcache.Key(sc)
	if err != nil {
		return traceBody{}, reference{}, err
	}
	ref, err := referenceOf(sc)
	if err != nil {
		return traceBody{}, reference{}, err
	}
	return traceBody{name: name, body: body, sc: sc, key: key}, ref, nil
}

// simulateReply is the part of a /v1/simulate or /v1/trace response the
// checks read; the outcome stays raw so it can be compared as bytes.
type simulateReply struct {
	Cached  bool            `json:"cached"`
	Key     string          `json:"key"`
	Outcome json.RawMessage `json:"outcome"`
}

// sweepReply is one NDJSON line of a /v1/sweep response.
type sweepReply struct {
	Index   int             `json:"index"`
	Cached  bool            `json:"cached"`
	Outcome json.RawMessage `json:"outcome"`
	Error   string          `json:"error"`
	Done    bool            `json:"done"`
	Total   int             `json:"total"`
	Failed  int             `json:"failed"`
}

// deviceRatios are the simulated page-hit ratio and DATA-bus
// utilization summed over a set of distinct scenarios, and their mean
// percentage of peak bandwidth.
func deviceRatios(refs []reference) (hitRatio, busUtil, pctPeak float64) {
	var hits, misses, busy, cycles int64
	for _, r := range refs {
		d := r.out.Device
		hits += d.PageHits
		misses += d.PageMisses
		busy += d.DataBusBusy
		cycles += r.out.Cycles
		pctPeak += r.out.PercentPeak
	}
	return float64(hits) / float64(hits+misses), float64(busy) / float64(cycles), pctPeak / float64(len(refs))
}
