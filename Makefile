# Convenience targets for the rdramstream reproduction.

GO ?= go

.PHONY: all build test vet lint bench profile figures examples cover fuzz serve clean

all: vet lint test build

build:
	$(GO) build ./...

vet:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# Repo-specific static analysis (see docs/STATIC_ANALYSIS.md).
lint:
	$(GO) run ./cmd/rdlint -stats ./...

test:
	$(GO) test ./...

# One benchmark per paper table/figure plus simulator micro-benchmarks.
# The end-to-end and per-layer benchmark is `bash perfbench/run.sh`
# (workloads and bounds in BENCHMARK.json; see docs/PERFORMANCE.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Full telemetry bundle (metrics.json, timeseries.csv, events.jsonl,
# trace.json) for the canonical daxpy/SMC/PI scenario, under profile/.
profile:
	$(GO) run ./cmd/rdprof -kernel daxpy -n 1024 -mode smc -scheme pi -fifo 128 -out profile

# Regenerate every artifact: ASCII tables on stdout, CSV series and SVG
# figures under out/.
figures:
	$(GO) run ./cmd/paperfigs -csv out/csv -svg out/svg

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scientific
	$(GO) run ./examples/multimedia
	$(GO) run ./examples/strides
	$(GO) run ./examples/tune
	$(GO) run ./examples/compileloop

cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Local simulation server with an on-disk result cache (see docs/SERVICE.md).
serve:
	$(GO) run ./cmd/rdserved -addr :8347 -cache-dir out/rdcache

# Short fuzz passes over the address mapper, the device protocol, and
# the rdtrace/v1 wire decoder.
fuzz:
	$(GO) test -fuzz=FuzzMapUnmap -fuzztime=10s ./internal/addrmap/
	$(GO) test -fuzz=FuzzDeviceDo -fuzztime=10s ./internal/rdram/
	$(GO) test -fuzz=FuzzDecodeWire -fuzztime=10s ./internal/tracegen/

clean:
	rm -rf out
