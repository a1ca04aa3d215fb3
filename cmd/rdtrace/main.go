// Command rdtrace records the packet-level bus activity of one simulation,
// renders the ROW/COL/DATA timeline (the Figure 5/6 view for arbitrary
// scenarios), validates the schedule against the protocol oracle, and
// prints bus-utilization statistics.
//
// Examples:
//
//	rdtrace -kernel daxpy -n 32 -mode natural -scheme cli
//	rdtrace -kernel copy -n 64 -mode smc -scheme pi -fifo 16 -scale 4
//	rdtrace -trace-gen "hot-row:n=256" -trace-out t.ndjson
//	rdtrace -trace-gen @t.ndjson -mode natural
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/natorder"
	"rdramstream/internal/protocheck"
	"rdramstream/internal/rdram"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
	"rdramstream/internal/tracegen"
	"rdramstream/internal/version"
	"rdramstream/internal/workload"
)

func main() {
	kernel := flag.String("kernel", "daxpy", "benchmark kernel: copy, daxpy, hydro, vaxpy")
	n := flag.Int("n", 32, "stream length (keep small; the timeline is one character per -scale cycles)")
	schemeF := flag.String("scheme", "cli", "cli or pi")
	mode := flag.String("mode", "natural", "smc or natural")
	fifo := flag.Int("fifo", 16, "SMC FIFO depth")
	scale := flag.Int("scale", 2, "cycles per timeline character")
	traceGen := flag.String("trace-gen", "", "replay a generated trace: a program spec (e.g. \"hot-row:n=256\") or @file for an NDJSON trace")
	traceSeed := flag.Int64("trace-seed", 1, "trace generator seed (with -trace-gen)")
	traceOut := flag.String("trace-out", "", "write the materialized trace as NDJSON to this file (with -trace-gen)")
	showVersion := flag.Bool("version", false, "print the version stamp and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version.Stamp())
		return
	}

	scheme, err := addrmap.ParseScheme(*schemeF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdtrace: %v\n", err)
		os.Exit(1)
	}
	cfg := rdram.DefaultConfig()
	dev := rdram.NewDevice(cfg)
	var rec rdram.Recorder
	dev.Trace = rec.Hook()

	var header string
	if *traceGen != "" {
		spec, name, err := tracegen.SpecFromArg(*traceGen, *traceSeed)
		if err != nil {
			fatalf("%v", err)
		}
		accs, err := spec.Materialize()
		if err != nil {
			fatalf("%v", err)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatalf("%v", err)
			}
			if err := tracegen.Encode(f, name, accs); err != nil {
				f.Close()
				fatalf("trace out: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("trace out: %v", err)
			}
		}
		reorder := false
		switch strings.ToLower(*mode) {
		case "smc":
			reorder = true
		case "natural", "cache":
		default:
			fatalf("unknown mode %q for trace replay (want smc or natural)", *mode)
		}
		if _, err := workload.ReplayTrace(dev, workload.TraceOptions{
			Scheme: scheme, LineWords: 4, Reorder: reorder, Window: *fifo,
		}, accs); err != nil {
			fatalf("%v", err)
		}
		header = fmt.Sprintf("trace %s (%d accesses), %v, %s controller", name, len(accs), scheme, *mode)
	} else {
		f, ok := stream.FactoryByName(*kernel)
		if !ok {
			fatalf("unknown kernel %q", *kernel)
		}
		bases, err := stream.Layout(scheme, cfg.Geometry, 4, f.Footprints(*n, 1), stream.Staggered)
		if err != nil {
			fatalf("%v", err)
		}
		k := f.Make(bases, *n, 1)
		switch strings.ToLower(*mode) {
		case "smc":
			_, err = smc.Run(dev, k, smc.Config{Scheme: scheme, LineWords: 4, FIFODepth: *fifo})
		case "natural", "cache":
			_, err = natorder.Run(dev, k, natorder.Config{Scheme: scheme, LineWords: 4})
		default:
			fatalf("unknown mode %q", *mode)
		}
		if err != nil {
			fatalf("%v", err)
		}
		header = fmt.Sprintf("%s, %d elements, %v, %s controller", *kernel, *n, scheme, *mode)
	}

	fmt.Printf("%s\n\n", header)
	fmt.Println(rec.Timeline(*scale))

	s := protocheck.Summarize(rec.Events)
	fmt.Printf("cycles=%d dataBusUtil=%.1f%% reads=%d writes=%d activates=%d precharges=%d\n",
		s.Cycles, 100*s.DataBusUtil, s.ReadPackets, s.WritePackets, s.Activates, s.Precharges)
	fmt.Printf("turnarounds=%d meanBurst=%.1f packets largestDataGap=%d cycles\n",
		s.Turnarounds, s.MeanBurstLen, s.LargestGap)

	if viols := protocheck.NewChecker(cfg).Check(rec.Events); len(viols) > 0 {
		fmt.Printf("\nPROTOCOL VIOLATIONS (%d):\n", len(viols))
		for _, v := range viols {
			fmt.Println("  ", v)
		}
		os.Exit(1)
	}
	fmt.Println("protocol check: clean (tRR/tRC/tRP/tRAS/tRCD/tRW and bus occupancy all respected)")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rdtrace: "+format+"\n", args...)
	os.Exit(1)
}
