package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/experiments"
	"rdramstream/internal/fault"
	"rdramstream/internal/service"
	"rdramstream/internal/sim"
	"rdramstream/internal/stream"
	"rdramstream/internal/tracegen"
)

// longN is the element count of the sweep-batch long vectors.
const longN = 64 << 10

// figure7Grid is the paper's Figure-7 scenario grid: every kernel on
// CLI and PI at both vector lengths, under the SMC at each FIFO depth
// plus the natural-order baseline — 96 scenarios.
func figure7Grid() []sim.Scenario {
	var scs []sim.Scenario
	for _, kn := range experiments.Figure7Kernels {
		for _, scheme := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for _, n := range experiments.Figure7Lengths {
				base := sim.Scenario{KernelName: kn, N: n, Scheme: scheme, Placement: stream.Staggered}
				for _, d := range experiments.Figure7Depths {
					sc := base
					sc.Mode, sc.FIFODepth = sim.SMC, d
					scs = append(scs, sc)
				}
				nat := base
				nat.Mode = sim.NaturalOrder
				scs = append(scs, nat)
			}
		}
	}
	return scs
}

// longVectors are the four 64K-element scenarios that weight the SMC
// planner and issue loop and the device: copy and daxpy, SMC on PI and
// natural order on CLI.
func longVectors() []sim.Scenario {
	var scs []sim.Scenario
	for _, kn := range []string{"copy", "daxpy"} {
		scs = append(scs,
			sim.Scenario{KernelName: kn, N: longN, Scheme: addrmap.PI, Mode: sim.SMC, FIFODepth: 128, Placement: stream.Staggered},
			sim.Scenario{KernelName: kn, N: longN, Scheme: addrmap.CLI, Mode: sim.NaturalOrder, Placement: stream.Staggered},
		)
	}
	return scs
}

// sweepBatch is the sweep-batch input: the Figure-7 grid plus the long
// vectors, timing-only as the paper sweeps run. The seed only seeds
// the scenarios' data; the order is the grid's, long vectors last, so
// they set the pool's tail on every seed alike.
func sweepBatch(seed int64) []sim.Scenario {
	scs := append(figure7Grid(), longVectors()...)
	for i := range scs {
		scs[i].SkipVerify = true
		scs[i].Seed = seed
	}
	return scs
}

// fleetPopulation is fleet-mix's scenario population, rank-ordered by
// popularity: the Figure-7 grid as the head, then fault-injected
// variants of its short (n = 128) scenarios as the long tail, so a miss
// costs the core only a short run. Tail rank r varies the r-th short
// scenario in turn under fault.Scaled at severity 1..3 in turn, with a
// fault seed drawn from the run's seed. The population's shape is the
// same on every seed, so the simulated work does not swing with it.
// Served scenarios are verified.
func fleetPopulation(seed int64, size int) []sim.Scenario {
	grid := figure7Grid()
	rng := rand.New(rand.NewSource(seed))
	pop := make([]sim.Scenario, 0, size)
	var short []sim.Scenario
	for i := range grid {
		grid[i].Seed = seed
		if grid[i].N == experiments.Figure7Lengths[0] {
			short = append(short, grid[i])
		}
	}
	pop = append(pop, grid...)
	for r := 0; len(pop) < size; r++ {
		sc := short[r%len(short)]
		f := fault.Scaled(rng.Int63(), 1+(r/len(short))%3)
		sc.Fault = &f
		pop = append(pop, sc)
	}
	return pop
}

// tracePatterns are trace-ingest's generator programs, 8,192 accesses
// each. Every one draws from its seed — the strided one through its
// write fraction — so traces of different seeds never share a cache key.
var tracePatterns = []string{
	"llm-kvcache:n=8192,ctxrows=32",
	"hot-row:n=8192,footprint=65536",
	"strided:n=8192,stride=16,write=0.25",
	"chase:n=8192,footprint=65536",
}

// traceBody is one pre-encoded POST /v1/trace request, with the
// scenario the server builds from it and that scenario's content key.
type traceBody struct {
	name string
	body []byte
	sc   sim.Scenario
	key  string
}

// traceScenario is the replay configuration every trace is posted
// under: the SMC's row-hit-first reordering on PI.
func traceScenario() sim.Scenario {
	return sim.Scenario{Scheme: addrmap.PI, Mode: sim.SMC, FIFODepth: 32}
}

// encodeTrace builds the POST /v1/trace body for one generator program:
// the service header carrying the replay scenario, then the access
// lines exactly as tracegen.Encode writes them.
func encodeTrace(pattern string, seed int64) (name string, body []byte, err error) {
	prog, err := tracegen.ParseProgram(pattern, seed)
	if err != nil {
		return "", nil, err
	}
	accs, err := prog.Generate()
	if err != nil {
		return "", nil, err
	}
	var enc bytes.Buffer
	if err := tracegen.Encode(&enc, prog.Name, accs); err != nil {
		return "", nil, err
	}
	lines := enc.Bytes()
	lines = lines[bytes.IndexByte(lines, '\n')+1:] // drop tracegen's own header
	hdr, err := json.Marshal(service.TraceHeader{
		Format: tracegen.FormatV1, Name: prog.Name, Accesses: len(accs), Scenario: traceScenario(),
	})
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%s#%d", prog.Name, seed), append(append(hdr, '\n'), lines...), nil
}
