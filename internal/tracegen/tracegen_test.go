package tracegen

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rdramstream/internal/rdram"
	"rdramstream/internal/workload"
)

func mustProgram(t *testing.T, spec string, seed int64) *Program {
	t.Helper()
	p, err := ParseProgram(spec, seed)
	if err != nil {
		t.Fatalf("ParseProgram(%q): %v", spec, err)
	}
	return p
}

// The determinism contract: the same program generates the same trace,
// and its NDJSON encoding is byte-identical, run to run.
func TestGenerateDeterministic(t *testing.T) {
	for _, spec := range []string{
		"strided:n=512,stride=16,write=0.3",
		"chase:n=512,footprint=65536",
		"hot-row:n=512,locality=0.8,hotrows=3",
		"llm-kvcache:n=4096,ctxrows=16,heads=4",
		"strided:n=128;chase:n=128;hot-row:n=128;llm-kvcache:n=1024",
	} {
		p := mustProgram(t, spec, 7)
		a, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		b, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two Generate calls differ", spec)
		}
		var buf1, buf2 bytes.Buffer
		if err := Encode(&buf1, p.Name, a); err != nil {
			t.Fatal(err)
		}
		if err := Encode(&buf2, p.Name, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Errorf("%s: NDJSON encodings differ", spec)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a, err := mustProgram(t, "chase:n=256", 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustProgram(t, "chase:n=256", 2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds generated the same chase trace")
	}
}

func TestGenerateShapes(t *testing.T) {
	// Each phase emits exactly its access budget, within the footprint.
	p := mustProgram(t, "strided:n=100,burst=8;llm-kvcache:n=1000,ctxrows=8", 3)
	accs, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 1100 {
		t.Fatalf("generated %d accesses, want 1100", len(accs))
	}
	for i, a := range accs {
		if a.Addr < 0 || a.Addr >= 1<<20 {
			t.Fatalf("access %d addr %d outside default footprint", i, a.Addr)
		}
	}
	// llm-kvcache mixes appends (writes) into the read stream.
	var writes int
	for _, a := range accs[100:] {
		if a.Write {
			writes++
		}
	}
	if writes == 0 {
		t.Error("llm-kvcache emitted no KV-append writes")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Program{
		{},                                   // no phases
		{Phases: []Phase{{Pattern: "warp"}}}, // unknown pattern
		{Phases: []Phase{{Pattern: PatternStrided, Accesses: -1}}},
		{Phases: []Phase{{Pattern: PatternStrided, Accesses: MaxAccesses + 1}}},
		{Phases: []Phase{{Pattern: PatternStrided, Start: -1}}},
		{Phases: []Phase{{Pattern: PatternStrided, WriteFraction: 1.5}}},
		{Phases: []Phase{{Pattern: PatternHotRow, BankLocality: -0.1}}},
		// Two max-sized phases overflow the program budget.
		{Phases: []Phase{
			{Pattern: PatternStrided, Accesses: MaxAccesses},
			{Pattern: PatternStrided, Accesses: MaxAccesses},
		}},
		// KV layout larger than the footprint.
		{Phases: []Phase{{Pattern: PatternLLMKV, Heads: 64, ContextRows: 1 << 10, RowWords: 128, FootprintWords: 1 << 20}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
	var nilProg *Program
	if err := nilProg.Validate(); err == nil {
		t.Error("nil program validated")
	}
}

func TestParseProgramErrors(t *testing.T) {
	bad := []string{
		"",
		";",
		"strided:",
		"strided:n",       // missing '='
		"strided:n=x",     // bad int
		"strided:nope=1",  // unknown key
		"warp:n=10",       // unknown pattern
		"strided:write=2", // out of range at validation
	}
	for _, spec := range bad {
		if _, err := ParseProgram(spec, 1); err == nil {
			t.Errorf("ParseProgram(%q): expected error", spec)
		}
	}
	// Errors carry the failing phase (0-based) and key.
	_, err := ParseProgram("strided:n=64;chase:bogus=1", 1)
	if err == nil || !strings.Contains(err.Error(), "phase 1") || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %v does not name phase 1 and key bogus", err)
	}
}

func TestParseProgramSeedKey(t *testing.T) {
	// A seed in the spec overrides the argument seed.
	p := mustProgram(t, "chase:n=64,seed=99", 1)
	if p.Seed != 99 {
		t.Errorf("seed = %d, want 99", p.Seed)
	}
	if p2 := mustProgram(t, "chase:n=64", 1); p2.Seed != 1 {
		t.Errorf("seed = %d, want the argument seed 1", p2.Seed)
	}
}

func TestSpecValidate(t *testing.T) {
	prog := mustProgram(t, "strided:n=64", 1)
	accs := []workload.TraceAccess{{Addr: 0}, {Addr: 4}}
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Program: prog}, true},
		{Spec{Accesses: accs}, true},
		{Spec{}, false},                              // neither
		{Spec{Program: prog, Accesses: accs}, false}, // both
		{Spec{Accesses: []workload.TraceAccess{{Addr: -1}}}, false},
		{Spec{Program: prog, Outstanding: -1}, false},
		{Spec{Program: prog, Outstanding: rdram.MaxOutstanding + 1}, false},
		{Spec{Program: prog, Outstanding: rdram.MaxOutstanding}, true},
	}
	for i, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

// A program spec and the spec holding its materialized accesses must
// canonicalize to the same digest — that is what makes the generator
// and a posted trace share cache entries.
func TestCanonicalDigestMatchesMaterialized(t *testing.T) {
	prog := mustProgram(t, "llm-kvcache:n=2048,ctxrows=8", 5)
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	byProgram, err := (&Spec{Program: prog}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	byAccesses, err := (&Spec{Accesses: accs}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if byProgram.Digest == "" || byProgram.Digest != byAccesses.Digest {
		t.Errorf("digests differ: program %q vs accesses %q", byProgram.Digest, byAccesses.Digest)
	}
	if byProgram.Program != nil || byProgram.Accesses != nil {
		t.Error("canonical spec still carries the program or accesses")
	}
	if byProgram.Outstanding != rdram.MaxOutstanding {
		t.Errorf("canonical outstanding = %d, want the device limit %d", byProgram.Outstanding, rdram.MaxOutstanding)
	}
	// An explicit depth is preserved; op and address both feed the digest.
	if d, err := (&Spec{Program: prog, Outstanding: 2}).Canonical(); err != nil || d.Outstanding != 2 {
		t.Errorf("canonical outstanding = %d (err %v), want 2", d.Outstanding, err)
	}
	flipped := make([]workload.TraceAccess, len(accs))
	copy(flipped, accs)
	flipped[0].Write = !flipped[0].Write
	if d, err := (&Spec{Accesses: flipped}).Canonical(); err != nil || d.Digest == byAccesses.Digest {
		t.Errorf("flipping an op did not change the digest (err %v)", err)
	}
}

// The content address is part of every trace's cache key and of the
// fabric's sharding, so its bytes are pinned: a trace longer than the
// digest's batch (and not a multiple of it) must keep this exact hex.
func TestDigestOfPinned(t *testing.T) {
	accs, err := mustProgram(t, "strided:n=3000,write=0.25;chase:n=1500,footprint=65536", 11).Generate()
	if err != nil {
		t.Fatal(err)
	}
	const want = "e2816e2ff198a8bb3349a2ca04af4ddbc5c3bd21292d3f3d86718853490d6b17"
	if got := DigestOf(accs); got != want {
		t.Errorf("DigestOf = %s, want %s", got, want)
	}
	if got, want := DigestOf(nil), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"; got != want {
		t.Errorf("DigestOf(nil) = %s, want the empty SHA-256 %s", got, want)
	}
}
