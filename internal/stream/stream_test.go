package stream

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestStreamAddrAndFootprint(t *testing.T) {
	s := Stream{Base: 100, Stride: 4, Length: 10}
	if got := s.Addr(0); got != 100 {
		t.Errorf("Addr(0) = %d", got)
	}
	if got := s.Addr(9); got != 136 {
		t.Errorf("Addr(9) = %d", got)
	}
	if got := s.FootprintWords(); got != 37 {
		t.Errorf("FootprintWords = %d, want 37", got)
	}
	if got := (Stream{}).FootprintWords(); got != 0 {
		t.Errorf("empty footprint = %d", got)
	}
}

func TestModeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("mode strings wrong")
	}
}

func TestKernelShapes(t *testing.T) {
	cases := []struct {
		k         *Kernel
		s, sr, sw int
	}{
		{Copy(0, 1000, 16, 1), 2, 1, 1},
		{Daxpy(2, 0, 1000, 16, 1), 3, 2, 1},
		{Hydro(1, 2, 3, 0, 1000, 2000, 16, 1), 4, 3, 1},
		{Vaxpy(0, 1000, 2000, 16, 1), 4, 3, 1},
		{Scale(2, 0, 1000, 16, 1), 2, 1, 1},
		{Sum(0, 1000, 2000, 16, 1), 3, 2, 1},
		{Triad(2, 0, 1000, 2000, 16, 1), 3, 2, 1},
		{MultiStream(7, 1, []int64{0, 1 << 10, 2 << 10, 3 << 10, 4 << 10, 5 << 10, 6 << 10, 7 << 10}, 16, 1), 8, 7, 1},
	}
	for _, c := range cases {
		if err := c.k.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", c.k.Name, err)
			continue
		}
		if len(c.k.Streams) != c.s || c.k.ReadStreams() != c.sr || c.k.WriteStreams() != c.sw {
			t.Errorf("%s: streams=%d sr=%d sw=%d, want %d/%d/%d",
				c.k.Name, len(c.k.Streams), c.k.ReadStreams(), c.k.WriteStreams(), c.s, c.sr, c.sw)
		}
		if c.k.Iterations() != 16 {
			t.Errorf("%s: Iterations = %d", c.k.Name, c.k.Iterations())
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Kernel { return Daxpy(2, 0, 1000, 8, 1) }
	cases := []struct {
		name   string
		mutate func(*Kernel)
	}{
		{"no streams", func(k *Kernel) { k.Streams = nil }},
		{"length mismatch", func(k *Kernel) { k.Streams[1].Length = 7 }},
		{"zero stride", func(k *Kernel) { k.Streams[0].Stride = 0 }},
		{"read after write", func(k *Kernel) {
			k.Streams[1], k.Streams[2] = k.Streams[2], k.Streams[1]
		}},
		{"bad mode", func(k *Kernel) { k.Streams[0].Mode = Mode(5) }},
		{"nil compute", func(k *Kernel) { k.Compute = nil }},
	}
	for _, c := range cases {
		k := base()
		c.mutate(k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestValidateComputeArity pins the Compute probe: a Compute returning
// the wrong number of values is rejected with an error, the probe sees
// one zero input per read stream (also past the shared probe buffer),
// and a kernel with no iterations is not probed.
func TestValidateComputeArity(t *testing.T) {
	for _, n := range []int{0, 2} {
		k := Copy(0, 100, 8, 1)
		k.Compute = func(int, []float64) []float64 { return make([]float64, n) }
		err := k.Validate()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("returned %d values, want 1", n)) {
			t.Errorf("Compute returning %d values: Validate = %v", n, err)
		}
	}
	for _, reads := range []int{1, 7, 40} {
		bases := make([]int64, reads+1)
		for i := range bases {
			bases[i] = int64(i) * 100
		}
		k := MultiStream(reads, 1, bases, 8, 1)
		inner := k.Compute
		var probed []float64
		k.Compute = func(i int, in []float64) []float64 {
			probed = append([]float64(nil), in...)
			return inner(i, in)
		}
		if err := k.Validate(); err != nil {
			t.Errorf("%d reads: %v", reads, err)
		}
		if len(probed) != reads {
			t.Errorf("%d reads: probe input has %d values", reads, len(probed))
		}
		for _, v := range probed {
			if v != 0 {
				t.Errorf("%d reads: probe input %v, want zeros", reads, probed)
				break
			}
		}
	}
	empty := Copy(0, 100, 0, 1)
	empty.Compute = func(int, []float64) []float64 { t.Error("zero-iteration kernel probed"); return nil }
	if err := empty.Validate(); err != nil {
		t.Errorf("zero-iteration kernel: %v", err)
	}
}

// replayToMap runs a kernel's golden model over a map-backed memory.
func replayToMap(k *Kernel, init map[int64]float64) map[int64]float64 {
	mem := make(map[int64]uint64, len(init))
	for a, v := range init {
		mem[a] = math.Float64bits(v)
	}
	k.Replay(
		func(a int64) uint64 { return mem[a] },
		func(a int64, v uint64) { mem[a] = v },
	)
	out := make(map[int64]float64, len(mem))
	for a, v := range mem {
		out[a] = math.Float64frombits(v)
	}
	return out
}

func TestReplayCopy(t *testing.T) {
	k := Copy(0, 100, 4, 1)
	init := map[int64]float64{0: 1, 1: 2, 2: 3, 3: 4}
	got := replayToMap(k, init)
	for i := int64(0); i < 4; i++ {
		if got[100+i] != float64(i+1) {
			t.Errorf("y[%d] = %v, want %v", i, got[100+i], float64(i+1))
		}
	}
}

func TestReplayDaxpyReadModifyWrite(t *testing.T) {
	k := Daxpy(2, 0, 100, 3, 1)
	init := map[int64]float64{0: 1, 1: 2, 2: 3, 100: 10, 101: 20, 102: 30}
	got := replayToMap(k, init)
	want := []float64{12, 24, 36}
	for i := range want {
		if got[int64(100+i)] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, got[int64(100+i)], want[i])
		}
	}
}

func TestReplayHydroOffsets(t *testing.T) {
	// x[i] = q + y[i]*(r*zx[i+10] + t*zx[i+11]), q=1 r=2 t=3.
	k := Hydro(1, 2, 3, 0, 1000, 2000, 2, 1)
	init := map[int64]float64{
		1000: 1, 1001: 2, // y
		2010: 5, 2011: 7, 2012: 9, // zx[10..12]
	}
	got := replayToMap(k, init)
	// x[0] = 1 + 1*(2*5 + 3*7) = 32 ; x[1] = 1 + 2*(2*7 + 3*9) = 83
	if got[0] != 32 || got[1] != 83 {
		t.Errorf("x = [%v %v], want [32 83]", got[0], got[1])
	}
}

func TestReplayVaxpyStrided(t *testing.T) {
	k := Vaxpy(0, 1000, 2000, 3, 4) // stride 4
	init := map[int64]float64{
		0: 2, 4: 3, 8: 4, // a
		1000: 5, 1004: 6, 1008: 7, // x
		2000: 1, 2004: 1, 2008: 1, // y
	}
	got := replayToMap(k, init)
	want := []float64{11, 19, 29}
	for i, w := range want {
		addr := int64(2000 + 4*i)
		if got[addr] != w {
			t.Errorf("y[%d]@%d = %v, want %v", i, addr, got[addr], w)
		}
	}
}

func TestReplayMultiStreamWritesSum(t *testing.T) {
	bases := []int64{0, 100, 200, 300}
	k := MultiStream(2, 2, bases, 2, 1)
	init := map[int64]float64{0: 1, 1: 2, 100: 10, 101: 20}
	got := replayToMap(k, init)
	if got[200] != 11 || got[300] != 12 {
		t.Errorf("writes = [%v %v], want [11 12]", got[200], got[300])
	}
	if got[201] != 22 || got[301] != 23 {
		t.Errorf("iter 1 writes = [%v %v], want [22 23]", got[201], got[301])
	}
}

func TestMultiStreamPanicsOnBaseMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MultiStream(2, 1, []int64{0}, 4, 1)
}

func TestBenchmarkFactories(t *testing.T) {
	if len(Benchmarks) != 4 {
		t.Fatalf("Benchmarks has %d entries, want 4", len(Benchmarks))
	}
	for _, f := range Benchmarks {
		fps := f.Footprints(128, 2)
		if len(fps) != f.Vectors {
			t.Errorf("%s: %d footprints for %d vectors", f.Name, len(fps), f.Vectors)
		}
		bases := make([]int64, f.Vectors)
		for i := range bases {
			bases[i] = int64(i) * 1 << 16
		}
		k := f.Make(bases, 128, 2)
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
		if k.Name != f.Name {
			t.Errorf("factory %s built kernel %s", f.Name, k.Name)
		}
	}
	if _, ok := FactoryByName("vaxpy"); !ok {
		t.Error("vaxpy factory missing")
	}
	if _, ok := FactoryByName("nope"); ok {
		t.Error("unexpected factory")
	}
	// hydro's zx vector must extend 11 elements beyond n.
	hydro, _ := FactoryByName("hydro")
	fps := hydro.Footprints(100, 3)
	if fps[2] != int64(111*3) {
		t.Errorf("hydro zx footprint = %d, want %d", fps[2], 111*3)
	}
}

func TestReplaySwap(t *testing.T) {
	k := Swap(0, 100, 3, 1)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.ReadStreams() != 2 || k.WriteStreams() != 2 {
		t.Fatalf("swap shape: %d/%d", k.ReadStreams(), k.WriteStreams())
	}
	init := map[int64]float64{0: 1, 1: 2, 2: 3, 100: 10, 101: 20, 102: 30}
	got := replayToMap(k, init)
	for i := int64(0); i < 3; i++ {
		if got[i] != float64(10*(i+1)) || got[100+i] != float64(i+1) {
			t.Fatalf("swap element %d: x=%v y=%v", i, got[i], got[100+i])
		}
	}
}
