package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdramstream/internal/sim"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {10, 1}, {1, 1}, {0, 1}, {11, 2}, {99, 10}, {100, 10}, {90, 9}, {90.5, 10},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("empty sample = %g, want 0", got)
	}
	if got := nearestRank([]float64{7}, 99); got != 7 {
		t.Errorf("single sample = %g, want 7", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{0, 0, 0},
		{5, 50, 3},  // too few for any tail: the median
		{10, 50, 5}, // exactly minTail: still the median
		{11, 100.0 / 11, 1},
		{100, 90, 90},   // p99 would leave 1 beyond
		{1000, 99, 990}, // p99 leaves exactly 10 beyond
		{2000, 99, 1980},
	} {
		p, v := tailPercentile(seq(c.n))
		if v != c.wantV || (c.n > 0 && fmt.Sprintf("%.6f", p) != fmt.Sprintf("%.6f", c.wantP)) {
			t.Errorf("n=%d: p%.4f = %g, want p%.4f = %g", c.n, p, v, c.wantP, c.wantV)
		}
		if c.n > minTail && c.n-int(v) < minTail {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, c.n-int(v))
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "parent", id: 1, start: 0, end: 10 * ms},
		{name: "a", id: 2, parent: 1, start: 1 * ms, end: 4 * ms},
		{name: "b", id: 3, parent: 1, start: 3 * ms, end: 6 * ms},  // overlaps a
		{name: "c", id: 4, parent: 1, start: 9 * ms, end: 12 * ms}, // clipped at 10
	}
	self := selfTimes(spans)
	if got := self["parent"][0]; got != 4*ms {
		t.Errorf("parent self = %v, want 4ms (10 - union of [1,6] and [9,10])", got)
	}
	if got := self["a"][0]; got != 3*ms {
		t.Errorf("leaf self = %v, want its duration 3ms", got)
	}
}

func TestScheduleRepeatsPerSeed(t *testing.T) {
	a := poissonDues(phaseRNG(7, "reference"), 500, 100)
	b := poissonDues(phaseRNG(7, "reference"), 500, 100)
	c := poissonDues(phaseRNG(8, "reference"), 500, 100)
	d := poissonDues(phaseRNG(7, "rung-1"), 500, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and phase gave different schedules")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, d) {
		t.Fatal("a different seed or phase gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("dues not ascending at %d", i)
		}
	}
	if window := 5 * time.Second; a[len(a)-1] >= window {
		t.Fatalf("last due %v outside the %v window", a[len(a)-1], window)
	}
}

func TestInputsRepeatPerSeed(t *testing.T) {
	if !reflect.DeepEqual(sweepBatch(3), sweepBatch(3)) {
		t.Error("sweep-batch inputs differ for one seed")
	}
	if reflect.DeepEqual(sweepBatch(3), sweepBatch(4)) {
		t.Error("sweep-batch inputs equal across seeds")
	}
	if !reflect.DeepEqual(fleetPopulation(3, 200), fleetPopulation(3, 200)) {
		t.Error("fleet population differs for one seed")
	}
	if reflect.DeepEqual(fleetPopulation(3, 200), fleetPopulation(4, 200)) {
		t.Error("fleet population equal across seeds")
	}
	if !reflect.DeepEqual(drawFleetRequests(3, 200, 300), drawFleetRequests(3, 200, 300)) {
		t.Error("fleet request sequence differs for one seed")
	}
	if reflect.DeepEqual(drawFleetRequests(3, 200, 300), drawFleetRequests(4, 200, 300)) {
		t.Error("fleet request sequence equal across seeds")
	}
	if !reflect.DeepEqual(drawTraceSequence(3, 300), drawTraceSequence(3, 300)) {
		t.Error("trace request sequence differs for one seed")
	}
	if reflect.DeepEqual(drawTraceSequence(3, 300), drawTraceSequence(4, 300)) {
		t.Error("trace request sequence equal across seeds")
	}
	// A fresh trace must miss the cache, so every pattern's body must
	// change with its seed.
	for _, p := range tracePatterns {
		_, b1, err := encodeTrace(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		_, b2, _ := encodeTrace(p, 11)
		_, b3, _ := encodeTrace(p, 12)
		if string(b1) != string(b2) || string(b1) == string(b3) {
			t.Errorf("%s: bodies must repeat per seed and differ across seeds", p)
		}
	}
}

// smallScenario is a quick kernel scenario for the check tests.
func smallScenario() sim.Scenario {
	return sim.Scenario{KernelName: "copy", N: 64, Mode: sim.SMC, FIFODepth: 16}
}

func TestSweepCheckRejectsMutatedOutcome(t *testing.T) {
	ref, err := referenceOf(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	refs := []reference{ref, ref}
	outs := []sim.Outcome{ref.out, ref.out}
	if n := sweepMismatches(outs, refs); n != 0 {
		t.Fatalf("identical outcomes: %d mismatches", n)
	}
	outs[1].Device.PageHits++
	if n := sweepMismatches(outs, refs); n != 1 {
		t.Fatalf("one mutated outcome: %d mismatches, want 1", n)
	}
}

func TestServedCheckRejectsMutatedOutcome(t *testing.T) {
	ref, err := referenceOf(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(ref.out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !sameBytes(indented, ref.outcome) {
		t.Fatal("an indented copy of the reference must compare equal")
	}
	mutated := ref.out
	mutated.Cycles++
	mb, _ := json.Marshal(mutated)
	if sameBytes(mb, ref.outcome) {
		t.Fatal("a mutated outcome compared equal")
	}
}

func TestTraceTargetRejectsMutatedReference(t *testing.T) {
	b, ref, err := traceReference("strided:n=256,stride=4", 5)
	if err != nil {
		t.Fatal(err)
	}
	in := &traceInputs{bodies: []traceBody{b}, refs: []reference{ref}, seq: []int{0}}
	tt, err := newTraceTarget(in)
	if err != nil {
		t.Fatal(err)
	}
	defer tt.stop(map[string]float64{})
	if r := tt.send(0, time.Now(), nil); r.err != nil {
		t.Fatalf("faithful reference rejected: %v", r.err)
	}
	in.bodies[0].key = strings.Repeat("0", len(b.key))
	if r := tt.send(0, time.Now(), nil); !errors.Is(r.err, errMismatch) {
		t.Fatalf("wrong key: err %v, want a mismatch", r.err)
	}
	in.bodies[0].key = b.key
	in.refs[0].outcome = []byte(strings.Replace(string(ref.outcome), `"Verified":true`, `"Verified":false`, 1))
	if r := tt.send(0, time.Now(), nil); !errors.Is(r.err, errMismatch) {
		t.Fatalf("mutated outcome: err %v, want a mismatch", r.err)
	}
}

func TestFleetRejectsMutatedReference(t *testing.T) {
	pop := []sim.Scenario{smallScenario(), {KernelName: "daxpy", N: 64}}
	refs, err := references(pop)
	if err != nil {
		t.Fatal(err)
	}
	in := &fleetInputs{pop: pop, refs: refs, seq: encodeFleetRequests(pop, []fleetRequest{
		{ranks: []int{0}}, {sweep: true, ranks: []int{1, 0, 1}},
	})}
	f, err := newFleet(in)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop(map[string]float64{})
	for i := range in.seq {
		if r := f.send(i, time.Now(), nil); r.err != nil {
			t.Fatalf("request %d: faithful reference rejected: %v", i, r.err)
		}
	}
	refs[1].outcome = []byte(strings.Replace(string(refs[1].outcome), `"Cycles":`, `"Cycles":1`, 1))
	if r := f.send(1, time.Now(), nil); !errors.Is(r.err, errMismatch) {
		t.Fatalf("mutated sweep row: err %v, want a mismatch", r.err)
	}
}

// manifest is the part of BENCHMARK.json the names are checked against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range m.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(wl, have) {
		t.Errorf("workloads: manifest %v, program %v", wl, have)
	}
	check := func(kind string, want []unit, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		var a, b []string
		for _, u := range want {
			a = append(a, u.name+" "+u.unit)
		}
		for _, u := range got {
			b = append(b, u.Name+" "+u.Unit)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s metrics: program %v, manifest %v", kind, a, b)
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd)
	check("per_layer", perLayer, m.PerLayer)
	// The goodput limits the program applies are the ones the manifest
	// states.
	limits := map[string]float64{"trace-ingest": tracePlan.limitMS, "fleet-mix": fleetPlan.limitMS}
	for _, w := range m.Workloads {
		if lim, ok := limits[w.Name]; ok && !strings.Contains(w.Why, fmt.Sprintf("p99 <= %g ms", lim)) {
			t.Errorf("%s: manifest why %q does not state the p99 limit of %g ms", w.Name, w.Why, lim)
		}
	}
}

func TestFinishRequiresEveryMetric(t *testing.T) {
	rep := &report{attempted: 1}
	got := map[string]float64{}
	for _, u := range endToEnd[1:] {
		got[u.name] = 1
	}
	if _, err := finish(rep, endToEnd, got); err == nil {
		t.Fatal("a missing metric must fail the run")
	}
	got[endToEnd[0].name] = 1
	res, err := finish(rep, endToEnd, got)
	if err != nil || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("complete metrics: %v, %d printed", err, len(res.Metrics))
	}
}

func TestWindowedLatencyShrugsOffOneStall(t *testing.T) {
	ph := &phase{}
	for i := 0; i < maxWindows*windowSamples; i++ {
		ph.latencies = append(ph.latencies, time.Duration(1+i%10)*time.Millisecond)
	}
	_, _, calm, windows := windowedLatency(ph)
	if windows != maxWindows {
		t.Fatalf("%d samples split into %d windows, want %d", len(ph.latencies), windows, maxWindows)
	}
	for i := windowSamples; i < 2*windowSamples; i++ { // one stall: the whole second window
		ph.latencies[i] = time.Second
	}
	if _, _, stalled, _ := windowedLatency(ph); stalled != calm {
		t.Errorf("a stall confined to one window moved the tail from %g to %g ms", calm, stalled)
	}
	short := &phase{latencies: ph.latencies[:2*windowSamples-1]}
	if _, _, _, w := windowedLatency(short); w != 1 {
		t.Errorf("%d samples split into %d windows, want 1", len(short.latencies), w)
	}
}
