// Package stream defines vector streams, the paper's benchmark kernels
// (copy, daxpy, hydro, vaxpy), vector placement in memory, and golden
// reference execution for functional verification.
//
// Terminology follows the paper: a *vector* is a region of memory; a
// *stream* is one directed access pattern over a vector. A read-modify-
// write vector (daxpy's y) therefore contributes two streams, one read and
// one write.
package stream

import (
	"fmt"
	"math"
)

// Mode says whether a stream is read from or written to memory.
type Mode int

// Stream directions.
const (
	Read Mode = iota
	Write
)

func (m Mode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

// Stream describes one vector-access pattern: base address, stride and
// length, plus its direction. Addresses and strides are in 64-bit words.
// This is exactly the information the paper's compiler transmits to the
// SMC at run time ("base address, stride, number of elements, and whether
// the stream is being read or written").
type Stream struct {
	Name   string
	Base   int64
	Stride int64
	Length int
	Mode   Mode
}

// Addr returns the word address of element i.
func (s Stream) Addr(i int) int64 {
	return s.Base + int64(i)*s.Stride
}

// FootprintWords is the extent of the stream in memory: the number of words
// from Base to one past the last element.
func (s Stream) FootprintWords() int64 {
	if s.Length == 0 {
		return 0
	}
	return int64(s.Length-1)*s.Stride + 1
}

func (s Stream) String() string {
	return fmt.Sprintf("%s(%s base=%d stride=%d n=%d)", s.Name, s.Mode, s.Base, s.Stride, s.Length)
}

// Kernel is an inner loop over a set of streams. On each iteration the
// processor consumes one element of every read stream and produces one
// element of every write stream, in the order the Streams slice lists them
// (the computation's "natural order"). All read streams must precede all
// write streams, reflecting the data dependence within one iteration.
type Kernel struct {
	Name    string
	Streams []Stream
	// Compute maps the iteration index and the values read (one per read
	// stream, in stream order) to the values to write (one per write
	// stream, in stream order). It must be free of side effects, and in
	// particular must not modify in. The returned slice may be reused by
	// the kernel across calls, so callers must copy the values out before
	// invoking Compute again.
	Compute func(i int, in []float64) []float64
}

// Validate checks the well-formedness invariants the analytic models and
// simulators rely on: at least one stream, equal lengths, positive strides,
// reads listed before writes, and a Compute that returns one value per
// write stream. The arity is probed with one side-effect-free call at
// iteration 0 on zero inputs, so a wrong-arity kernel fails here with an
// error on every controller, including timing-only runs that never call
// Compute otherwise.
func (k *Kernel) Validate() error {
	if len(k.Streams) == 0 {
		return fmt.Errorf("stream: kernel %q has no streams", k.Name)
	}
	n := k.Streams[0].Length
	seenWrite := false
	reads := 0
	for i, s := range k.Streams {
		if s.Length != n {
			return fmt.Errorf("stream: kernel %q stream %d length %d != %d", k.Name, i, s.Length, n)
		}
		if s.Stride <= 0 {
			return fmt.Errorf("stream: kernel %q stream %d has non-positive stride %d", k.Name, i, s.Stride)
		}
		switch s.Mode {
		case Read:
			if seenWrite {
				return fmt.Errorf("stream: kernel %q lists read stream %d after a write stream", k.Name, i)
			}
			reads++
		case Write:
			seenWrite = true
		default:
			return fmt.Errorf("stream: kernel %q stream %d has invalid mode %d", k.Name, i, int(s.Mode))
		}
	}
	if k.Compute == nil {
		return fmt.Errorf("stream: kernel %q has no Compute function", k.Name)
	}
	if n > 0 {
		in := probeInputs[:]
		if reads > len(in) {
			in = make([]float64, reads)
		}
		if got := len(k.Compute(0, in[:reads:reads])); got != len(k.Streams)-reads {
			return fmt.Errorf("stream: kernel %q Compute returned %d values, want %d", k.Name, got, len(k.Streams)-reads)
		}
	}
	return nil
}

// probeInputs is the zero input Validate's arity probe shares across
// kernels, so validating a run allocates nothing; Compute never writes
// its input (it is free of side effects).
var probeInputs [16]float64

// Iterations is the number of inner-loop iterations (the common stream
// length).
func (k *Kernel) Iterations() int {
	if len(k.Streams) == 0 {
		return 0
	}
	return k.Streams[0].Length
}

// ReadStreams returns the count of read streams (the paper's s_r).
func (k *Kernel) ReadStreams() int {
	n := 0
	for _, s := range k.Streams {
		if s.Mode == Read {
			n++
		}
	}
	return n
}

// WriteStreams returns the count of write streams (the paper's s_w).
func (k *Kernel) WriteStreams() int { return len(k.Streams) - k.ReadStreams() }

// Replay executes the kernel functionally against a word-addressed memory,
// reading and writing 64-bit float bit patterns. It is the golden model the
// simulators are checked against.
func (k *Kernel) Replay(load func(addr int64) uint64, store func(addr int64, v uint64)) {
	nr := k.ReadStreams()
	in := make([]float64, nr)
	for i := 0; i < k.Iterations(); i++ {
		for r := 0; r < nr; r++ {
			in[r] = math.Float64frombits(load(k.Streams[r].Addr(i)))
		}
		out := k.Compute(i, in)
		if len(out) != len(k.Streams)-nr {
			panic(fmt.Sprintf("stream: kernel %q Compute returned %d values, want %d", k.Name, len(out), len(k.Streams)-nr))
		}
		for w, v := range out {
			store(k.Streams[nr+w].Addr(i), math.Float64bits(v))
		}
	}
}
