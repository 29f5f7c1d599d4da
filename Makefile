# Developer entry points. `make check` is the full gate CI should run.

GO ?= go

.PHONY: check fmt vet build test race benchall benchcheck chaos fuzzsmoke \
	recall recallsmoke chaose2e

# The chaos experiment (TestChaosExperiment) and the black-box cluster chaos
# run (TestChaosSmoke) are go tests, so `test` and `race` gate them.
check: fmt vet build test race benchcheck recallsmoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# benchcheck compiles and tests the repository benchmark, the one harness
# every performance number comes from (`bash bench/run.sh`; see
# bench/README.md). bench/ is its own Go module (blobindex/bench, replace
# blobindex => ../), so nothing above sees it: without this an API change
# under internal/ or the facade breaks the benchmark silently. Its tests
# include a smoke-scale run of every workload against real daemons.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# benchall runs the full paper-evaluation benchmark suite.
benchall:
	$(GO) test -bench=. -benchmem -run=^$$ .

# chaos replays the k-NN workload under injected read faults and writes the
# committed artifact CHAOS_PR5.json; it exits nonzero if any successful
# query disagrees with the fault-free run or a torn save loses the index.
# The run is deterministic, so it reproduces the committed file byte for
# byte.
chaos:
	$(GO) run ./cmd/blobbench -images 4000 -queries 128 -experiment chaos \
		-chaosout CHAOS_PR5.json

# fuzzsmoke gives the pagefile openers' fuzzers (index file, refine sidecar),
# the mapped page reader's differential fuzzer (against os.File.ReadAt), the
# search response encoder's differential fuzzer and the router's strict
# response scanner a short budget each — enough to catch format-validation
# and encoding regressions without slowing the gate. go test takes one fuzz
# target per run.
fuzzsmoke:
	$(GO) test -fuzz=FuzzOpenPaged -fuzztime=10s -run=^$$ ./internal/pagefile
	$(GO) test -fuzz=FuzzOpenSidecar -fuzztime=10s -run=^$$ ./internal/pagefile
	$(GO) test -fuzz=FuzzMappedReadAt -fuzztime=10s -run=^$$ ./internal/pagefile
	$(GO) test -fuzz=FuzzAppendSearchResponse -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzScanSearchResponse -fuzztime=10s -run=^$$ ./internal/wire

# recall calibrates the filter-and-refine candidate multiplier against
# brute-force exact ground truth at artifact scale and writes the committed
# artifact RECALL_PR6.json; the facade's TargetRecall ladder is derived from
# it (see search.go's refineLadder).
recall:
	$(GO) run ./cmd/blobbench -experiment recall -recallout RECALL_PR6.json

# recallsmoke is the toy-scale calibration run wired into `make check`: the
# full sweep-and-calibrate path, brute-force ground truth included, but cheap.
recallsmoke:
	$(GO) run ./cmd/blobbench -images 500 -experiment recall -recall-queries 8

# chaose2e runs the black-box cluster chaos harness at acceptance scale —
# real blobserved/blobrouted binaries, 3 shards + replica, >=256 seeded
# actions x 2 seeds with kill -9 mid-save, SIGSTOP stalls, graceful
# restarts and router<->shard partitions — and writes the committed
# artifact CHAOSE2E_PR10.json. It exits nonzero on any divergence from the
# fault-free oracle or any acknowledged write lost. Reproduce a failure
# with the recorded seed: the whole sequence is a pure function of it.
chaose2e:
	$(GO) run ./cmd/blobbench -images 1000 -experiment chaose2e \
		-chaose2e-seeds 2 -chaose2e-actions 256 -chaose2e-images 900 \
		-chaose2eout CHAOSE2E_PR10.json
