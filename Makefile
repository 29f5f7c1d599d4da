# Developer entry points. `make check` is the full gate CI should run.

GO ?= go

.PHONY: check fmt vet build test race bench benchall benchsmoke benchdiff benchcheck \
	servebench servesmoke chaos chaossmoke fuzzsmoke \
	recall recallsmoke ingest ingestsmoke cluster clustersmoke vetdep \
	chaose2e chaose2esmoke

check: fmt vet vetdep build test race benchcheck benchsmoke servesmoke chaossmoke recallsmoke ingestsmoke clustersmoke chaose2esmoke

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

# benchcheck compiles and tests the repository benchmark. bench/ is its own
# Go module (blobindex/bench, replace blobindex => ../), so nothing above
# sees it: without this an API change under internal/ or the facade breaks
# `bash bench/run.sh` silently. -short skips its smoke-scale self-run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# bench regenerates the query-path performance artifact and runs the
# allocation-focused search benchmarks. BENCH_ARTIFACT names the output, a
# scratch file the root .gitignore's BENCH_*.json pattern keeps out of the
# tree (the committed baseline is BENCH_BASE below); BENCH_FLAGS scales the
# workload, e.g. `make bench BENCH_FLAGS='-images 2000 -queries 64'` for a
# CI-sized run.
BENCH_ARTIFACT ?= BENCH_local.json
BENCH_FLAGS ?=
bench:
	$(GO) test -bench 'KNN|Range|Probe' -benchmem -run=^$$ ./internal/nn/ .
	$(GO) run ./cmd/blobbench $(BENCH_FLAGS) -experiment bench -benchout $(BENCH_ARTIFACT)

# benchdiff guards the hot path: it compares the artifact `make bench` just
# wrote against the committed baseline row by row and fails if any (am, op)
# got more than 20% slower. Run `make bench` first — BENCH_ARTIFACT is never
# committed.
BENCH_BASE ?= BENCH_PR2.json
benchdiff:
	$(GO) run ./cmd/benchdiff -base $(BENCH_BASE) -new $(BENCH_ARTIFACT) -max-regress 0.20

# benchall runs the full paper-evaluation benchmark suite.
benchall:
	$(GO) test -bench=. -benchmem -run=^$$ .

# benchsmoke is the cheap query-path bench run wired into `make check`: it
# exercises the measurement layer end to end at toy scale.
benchsmoke:
	$(GO) run ./cmd/blobbench -images 500 -queries 16 -experiment bench -bench-iters 5

# servebench load-tests the HTTP serving stack at the acceptance shape
# (64 concurrent clients) and writes the committed artifact SERVE_PR4.json.
servebench:
	$(GO) run ./cmd/blobbench -experiment serve -serveout SERVE_PR4.json

# servesmoke is the toy-scale serving run wired into `make check`: real TCP
# listener, concurrent clients, graceful shutdown — end to end but cheap.
servesmoke:
	$(GO) run ./cmd/blobbench -images 500 -queries 32 -experiment serve \
		-serve-clients 16 -serve-requests 256

# chaos replays the k-NN workload under injected read faults and writes the
# committed artifact CHAOS_PR5.json; it exits nonzero if any successful
# query disagrees with the fault-free run or a torn save loses the index.
chaos:
	$(GO) run ./cmd/blobbench -images 4000 -queries 128 -experiment chaos \
		-chaosout CHAOS_PR5.json

# chaossmoke is the toy-scale fault-injection run wired into `make check`.
chaossmoke:
	$(GO) run ./cmd/blobbench -images 500 -queries 32 -experiment chaos

# fuzzsmoke gives the pagefile openers' fuzzers (index file, refine sidecar)
# a short budget each — enough to catch format-validation regressions
# without slowing the gate. go test takes one fuzz target per run.
fuzzsmoke:
	$(GO) test -fuzz=FuzzOpenPaged -fuzztime=10s -run=^$$ ./internal/pagefile
	$(GO) test -fuzz=FuzzOpenSidecar -fuzztime=10s -run=^$$ ./internal/pagefile

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

# ingest measures the online write path at artifact scale — WAL-backed
# durable inserts from concurrent writers with k-NN readers racing live
# seals/compactions, crash-image WAL-replay recovery, torn-tail probes, and
# equivalence of the compacted index against a one-shot bulk load — and
# writes the committed artifact INGEST_PR8.json; it exits nonzero if any
# recovery or equivalence query diverges.
ingest:
	$(GO) run ./cmd/blobbench -experiment ingest -ingestout INGEST_PR8.json

# ingestsmoke is the toy-scale online-ingest run wired into `make check`:
# the full pipeline — durable writes, racing readers, crash recovery,
# torn tails, equivalence — at a scale that keeps the gate fast.
ingestsmoke:
	$(GO) run ./cmd/blobbench -images 500 -queries 16 -experiment ingest

# cluster measures the sharded serving tier at artifact scale — 3
# hash-partitioned shards plus a replica behind the scatter-gather router —
# and writes the committed artifact CLUSTER_PR9.json; it exits nonzero if
# any router result diverges from the unpartitioned oracle (including while
# a killed primary's replica serves) or the failover probe drops a query.
cluster:
	$(GO) run ./cmd/blobbench -experiment cluster -clusterout CLUSTER_PR9.json

# clustersmoke is the toy-scale cluster run wired into `make check`: real
# TCP shard daemons, scatter-gather merge identity, and the kill-the-primary
# failover probe, at a scale that keeps the gate fast.
clustersmoke:
	$(GO) run ./cmd/blobbench -images 500 -queries 16 -experiment cluster \
		-cluster-clients 8 -cluster-requests 256

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

# chaose2esmoke is the cheap chaos leg wired into `make check`: one seed,
# 64 actions, small corpus — the forced fault coverage (kill -9, partition,
# restart) still applies, so the whole harness runs end to end.
chaose2esmoke:
	$(GO) test -run TestChaosSmoke -count=1 -timeout 600s ./test/e2e/

# vetdep fails when non-test code in this repo still calls the entry points
# the SearchRequest API deprecated. (staticcheck would flag these as SA1019;
# this grep gate keeps the check dependency-free.)
vetdep:
	@out=$$(grep -rnE '\.(SearchKNNInto|SearchRangeInto|SearchKNNCtx|SearchRangeCtx)\(' \
		--include='*.go' . | grep -v '_test\.go' | grep -v '^\./concurrent\.go'); \
	if [ -n "$$out" ]; then \
		echo "deprecated search entry points still called outside tests:"; \
		echo "$$out"; exit 1; \
	fi; true
