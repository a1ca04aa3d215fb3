package tracegen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rdramstream/internal/workload"
)

// writeTempTrace encodes accs as an NDJSON trace file under t.TempDir.
func writeTempTrace(t *testing.T, name string, accs []workload.TraceAccess) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := Encode(f, name, accs); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func TestWireRoundTrip(t *testing.T) {
	accs := []workload.TraceAccess{
		{Addr: 0}, {Addr: 16, Write: true}, {Addr: 1 << 40},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, "rt", accs); err != nil {
		t.Fatal(err)
	}
	h, got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Format != FormatV1 || h.Name != "rt" || h.Accesses != 3 {
		t.Errorf("header = %+v", h)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Errorf("round trip = %+v, want %+v", got, accs)
	}
}

// wireErrorCases are malformed bodies and the error text each must
// produce; FuzzDecodeWire seeds its corpus with them too.
var wireErrorCases = func() []struct{ name, body, wantErr string } {
	hdr := `{"format":"rdtrace/v1","accesses":2}`
	return []struct{ name, body, wantErr string }{
		{"empty body", "", "empty trace body"},
		{"bad header json", "{", "line 1"},
		{"unknown header field", `{"format":"rdtrace/v1","accesses":1,"zap":1}` + "\n" + `{"op":"R","addr":0}`, "zap"},
		{"wrong format", `{"format":"rdtrace/v9","accesses":1}` + "\n" + `{"op":"R","addr":0}`, "unknown trace format"},
		{"zero accesses", `{"format":"rdtrace/v1","accesses":0}`, "declares 0"},
		{"too many accesses", `{"format":"rdtrace/v1","accesses":99999999}`, "declares 99999999"},
		{"truncated", hdr + "\n" + `{"op":"R","addr":0}`, "truncated"},
		{"bad access json", hdr + "\n" + `{"op":"R","addr":0}` + "\nnope", "line 3"},
		{"unknown op", hdr + "\n" + `{"op":"Q","addr":0}`, `unknown op "Q"`},
		{"negative addr", hdr + "\n" + `{"op":"R","addr":-4}`, "negative address"},
		{"trailing token on line", hdr + "\n" + `{"op":"R","addr":0} {"x":1}`, "trailing data"},
		{"trailing garbage after count", hdr + "\n" + `{"op":"R","addr":0}` + "\n" + `{"op":"R","addr":4}` + "\n" + `{"op":"R","addr":8}`, "trailing garbage"},
	}
}()

func TestWireErrors(t *testing.T) {
	for _, c := range wireErrorCases {
		_, _, err := Decode(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// A header is untrusted input: declaring the maximum access count in a
// few bytes must not buy a maximum-size allocation before the body
// turns out to be empty.
func TestReadAccessesHostileHeaderBounded(t *testing.T) {
	body := `{"format":"rdtrace/v1","accesses":4194304}` + "\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	const want = "tracegen: trace truncated: header declared 4194304 accesses, body ends after 0"
	if err == nil || err.Error() != want {
		t.Errorf("error = %v, want %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decoding a %d-byte body allocated %d bytes, want < 1 MiB", len(body), got)
	}
}

// Access lines are written exactly as json.Marshal renders a Line, the
// rendering every earlier trace file and POST body was written in.
func TestEncodeMatchesJSONMarshal(t *testing.T) {
	accs := []workload.TraceAccess{
		{Addr: 0}, {Addr: 0, Write: true},
		{Addr: math.MaxInt64}, {Addr: math.MaxInt64, Write: true},
		{Addr: 1 << 40, Write: true}, {Addr: 7},
	}
	var want bytes.Buffer
	hdr, err := json.Marshal(Header{Format: FormatV1, Name: "pin", Accesses: len(accs)})
	if err != nil {
		t.Fatal(err)
	}
	want.Write(hdr)
	want.WriteByte('\n')
	for _, a := range accs {
		op := "R"
		if a.Write {
			op = "W"
		}
		ln, err := json.Marshal(Line{Op: op, Addr: a.Addr})
		if err != nil {
			t.Fatal(err)
		}
		want.Write(ln)
		want.WriteByte('\n')
	}
	var got bytes.Buffer
	if err := Encode(&got, "pin", accs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Encode =\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}

// refDecode is the reference the decoder is checked against: Decode
// with every access line going through the strict JSON path.
func refDecode(body []byte) (Header, []workload.TraceAccess, error) {
	d := NewDecoder(bytes.NewReader(body))
	var h Header
	if err := d.DecodeHeader(&h); err != nil {
		return Header{}, nil, err
	}
	if h.Format != FormatV1 {
		return Header{}, nil, fmt.Errorf("tracegen: unknown trace format %q (want %q)", h.Format, FormatV1)
	}
	want := h.Accesses
	if want <= 0 || want > MaxAccesses {
		return Header{}, nil, fmt.Errorf("tracegen: header declares %d accesses, want (0, %d]", want, MaxAccesses)
	}
	var out []workload.TraceAccess
	for len(out) < want {
		b, line, ok, err := d.next()
		if err != nil {
			return Header{}, nil, err
		}
		if !ok {
			return Header{}, nil, fmt.Errorf("tracegen: trace truncated: header declared %d accesses, body ends after %d", want, len(out))
		}
		var l Line
		if err := decodeLine(b, line, &l); err != nil {
			return Header{}, nil, err
		}
		var write bool
		switch l.Op {
		case "R":
		case "W":
			write = true
		default:
			return Header{}, nil, fmt.Errorf("tracegen: trace line %d: unknown op %q (want R or W)", line, l.Op)
		}
		if l.Addr < 0 {
			return Header{}, nil, fmt.Errorf("tracegen: trace line %d: negative address %d", line, l.Addr)
		}
		out = append(out, workload.TraceAccess{Addr: l.Addr, Write: write})
	}
	if b, line, ok, err := d.next(); err != nil {
		return Header{}, nil, err
	} else if ok {
		return Header{}, nil, fmt.Errorf("tracegen: trace line %d: trailing garbage after the %d declared accesses: %q", line, want, truncate(b, 40))
	}
	return h, out, nil
}

// FuzzDecodeWire checks the access-line matcher against the strict JSON
// path: a line the matcher accepts decodes to the same access through
// decodeLine, and a whole body decodes to the same header and accesses,
// or fails with the same error text, as refDecode.
func FuzzDecodeWire(f *testing.F) {
	for _, c := range wireErrorCases {
		f.Add([]byte(c.body))
	}
	hdr1 := `{"format":"rdtrace/v1","accesses":1}` + "\n"
	for _, line := range []string{
		`{"op":"R","addr":0}`,
		`{"op":"W","addr":999999999999999999}`,
		`{"op":"R","addr":007}`,
		`{"op":"R","addr":-0}`,
		`{"op":"R","addr":1e3}`,
		`{"op":"R","addr":null}`,
		`{"op":"W","addr":1234567890123456789}`,
		`{"op":"R","addr":9223372036854775807}`,
		`{"op":"R","addr":9223372036854775808}`,
		`{"OP":"R","ADDR":1}`,
		`{"op":"R"}`,
		`{"op":"R","addr":1,"addr":2}`,
		`{"op":"R","op":"W","addr":3}`,
		`{ "op" : "W" , "addr" : 42 }`,
		"\t{\"op\":\"R\",\"addr\":5}  ",
	} {
		f.Add([]byte(hdr1 + line))
	}
	var enc bytes.Buffer
	if err := Encode(&enc, "seed", []workload.TraceAccess{{Addr: 0}, {Addr: 64, Write: true}, {Addr: math.MaxInt64}}); err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Bytes())

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, raw := range bytes.Split(body, []byte("\n")) {
			b := bytes.TrimSpace(raw)
			a, ok := parseLine(b)
			if !ok {
				continue
			}
			var l Line
			if err := decodeLine(b, 1, &l); err != nil {
				t.Fatalf("parseLine accepted %q, decodeLine rejects it: %v", b, err)
			}
			wantOp := "R"
			if a.Write {
				wantOp = "W"
			}
			if l.Op != wantOp || l.Addr != a.Addr {
				t.Fatalf("parseLine(%q) = %+v, decodeLine = %+v", b, a, l)
			}
		}
		h, accs, err := Decode(bytes.NewReader(body))
		rh, raccs, rerr := refDecode(body)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("Decode error %v, reference error %v", err, rerr)
		}
		if h != rh || !reflect.DeepEqual(accs, raccs) {
			t.Fatalf("Decode = %+v %v, reference = %+v %v", h, accs, rh, raccs)
		}
	})
}

// BenchmarkWire times one 8,192-access trace through Encode, Decode,
// and DigestOf.
func BenchmarkWire(b *testing.B) {
	p, err := ParseProgram("hot-row:n=8192,write=0.25", 1)
	if err != nil {
		b.Fatal(err)
	}
	accs, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := Encode(&body, p.Name, accs); err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := Encode(io.Discard, p.Name, accs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := Decode(bytes.NewReader(body.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DigestOf", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			DigestOf(accs)
		}
	})
}

// Errors must carry the offending line number so a multi-megabyte POST
// is debuggable.
func TestWireErrorsNameTheLine(t *testing.T) {
	body := `{"format":"rdtrace/v1","accesses":3}
{"op":"R","addr":0}
{"op":"R","addr":4}
{"op":"X","addr":8}`
	_, _, err := Decode(strings.NewReader(body))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %v does not name line 4", err)
	}
}

func TestSpecFromArg(t *testing.T) {
	spec, name, err := SpecFromArg("strided:n=32", 9)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Program == nil || spec.Program.Seed != 9 || name != "strided:n=32" {
		t.Errorf("spec = %+v, name = %q", spec, name)
	}

	prog := mustProgram(t, "chase:n=16,footprint=4096", 2)
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	f, err := writeTempTrace(t, prog.Name, accs)
	if err != nil {
		t.Fatal(err)
	}
	fileSpec, fileName, err := SpecFromArg("@"+f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fileName != prog.Name {
		t.Errorf("file spec name = %q, want %q", fileName, prog.Name)
	}
	if !reflect.DeepEqual(fileSpec.Accesses, accs) {
		t.Error("file spec accesses differ from the encoded trace")
	}
	if _, _, err := SpecFromArg("@/nonexistent/trace.ndjson", 0); err == nil {
		t.Error("expected error for a missing trace file")
	}
}
