package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/workload"
)

func traceScenario() sim.Scenario {
	return sim.Scenario{Scheme: addrmap.PI, Mode: sim.SMC, FIFODepth: 32}
}

func kvTrace(t *testing.T) (*tracegen.Program, []workload.TraceAccess) {
	t.Helper()
	prog, err := tracegen.ParseProgram("llm-kvcache:n=4096,ctxrows=16", 7)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return prog, accs
}

// The trace-ingestion acceptance criterion: a POSTed trace's outcome is
// byte-identical JSON to a local replay of the same accesses, and
// re-POSTing the identical trace is a cache hit on the same key.
func TestTraceEndpointByteIdentical(t *testing.T) {
	_, cl := startServer(t)
	_, accs := kvTrace(t)
	sc := traceScenario()

	local := sc
	local.Workload = &tracegen.Spec{Accesses: accs}
	want, err := sim.Run(local)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	first, err := cl.Trace(context.Background(), sc, "kv", accs)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(first.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("posted trace outcome diverges from local replay:\n  local:  %.200s\n  server: %.200s", wantJSON, gotJSON)
	}
	if first.Cached {
		t.Error("first POST reported a cache hit")
	}
	if key, err := resultcache.Key(local); err != nil || first.Key != key {
		t.Errorf("response key %s, want resultcache.Key %s (err %v)", first.Key, key, err)
	}

	second, err := cl.Trace(context.Background(), sc, "kv", accs)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical re-POST missed the cache")
	}
	if second.Key != first.Key {
		t.Errorf("keys differ across identical POSTs: %s vs %s", first.Key, second.Key)
	}
	again, err := json.Marshal(second.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(gotJSON) {
		t.Error("cached outcome differs from the first")
	}
}

// A simulate of the generator program and a POST of its materialized
// trace are the same cache entry — content addressing across endpoints.
func TestTraceEndpointCrossEndpointDedup(t *testing.T) {
	_, cl := startServer(t)
	prog, accs := kvTrace(t)

	progSc := traceScenario()
	progSc.Workload = &tracegen.Spec{Program: prog}
	viaProgram, err := cl.Simulate(context.Background(), progSc)
	if err != nil {
		t.Fatal(err)
	}
	viaTrace, err := cl.Trace(context.Background(), traceScenario(), prog.Name, accs)
	if err != nil {
		t.Fatal(err)
	}
	if viaTrace.Key != viaProgram.Key {
		t.Errorf("program key %s != posted-trace key %s", viaProgram.Key, viaTrace.Key)
	}
	if !viaTrace.Cached {
		t.Error("posting the program's own trace missed the cache")
	}
}

// The scenario may set the replay depth but must not smuggle a second
// trace source; malformed bodies fail with 400 and a line-naming error.
func TestTraceEndpointRejects(t *testing.T) {
	ts, _ := startServer(t)
	scJSON, err := json.Marshal(traceScenario())
	if err != nil {
		t.Fatal(err)
	}
	sc := string(scJSON)
	line := `{"op":"R","addr":0}`
	cases := []struct {
		name, body, wantErr string
	}{
		{"wrong format",
			`{"format":"rdtrace/v9","accesses":1,"scenario":` + sc + `}` + "\n" + line,
			"unknown trace format"},
		{"truncated body",
			`{"format":"rdtrace/v1","accesses":2,"scenario":` + sc + `}` + "\n" + line,
			"truncated"},
		{"trailing garbage",
			`{"format":"rdtrace/v1","accesses":1,"scenario":` + sc + `}` + "\n" + line + "\n" + line,
			"trailing garbage"},
		{"unknown header field",
			`{"format":"rdtrace/v1","accesses":1,"scenario":` + sc + `,"zap":1}` + "\n" + line,
			"zap"},
		{"inline program",
			`{"format":"rdtrace/v1","accesses":1,"scenario":{"Scheme":1,"Mode":1,"Workload":{"program":{"phases":[{"pattern":"strided"}]}}}}` + "\n" + line,
			"the body is the trace"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/trace", "application/x-ndjson", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %.120s)", c.name, resp.StatusCode, raw)
			continue
		}
		if !strings.Contains(string(raw), c.wantErr) {
			t.Errorf("%s: body %.200s does not mention %q", c.name, raw, c.wantErr)
		}
	}
}
