# Tier-1 verification lives behind `make ci`: lint (gofmt gate + vet) +
# build + race-enabled tests + the correctness harness (differential oracles + property checks
# under -race), the obs-lint telemetry-schema gate, a bounded fuzz smoke of
# every fuzz target, and a short parallel-throughput smoke run of saccs-bench. The race run uses -short
# because the full experiment harness (internal/experiments regenerates every
# paper table) exceeds go test's timeout under the race detector; -short
# skips only those heavy regenerators — the concurrency tests (saccs root
# package, internal/obs, internal/index) always run. `make race-full` races
# the whole suite when you have ~an hour.

GO ?= go

# Per-target budget for fuzz-smoke. Native fuzzing keeps any crashers it
# finds under testdata/fuzz/ — commit them as regression seeds.
FUZZTIME ?= 30s

# Minimum acceptable total test coverage (percent), measured by `make cover`.
# Recorded from the seed tree; raise it when coverage genuinely improves,
# never lower it to make a PR pass.
COVER_BASELINE ?= 77.3

.PHONY: ci lint vet build test test-short race race-full bench bench-smoke \
	bench-contention bench-cache bench-latency bench-ingest \
	bench-serve check obs-lint fuzz-smoke cover

ci: lint build race check obs-lint fuzz-smoke bench-smoke

# obs-lint gates the telemetry schema: every stage.* span the query pipeline
# emits must have a matching registered stage-latency histogram and must
# appear in the wide-event schema (obs.StageNames), so a renamed span can't
# silently fall out of /metrics or the wide events.
obs-lint:
	$(GO) test -count=1 -run '^TestObsLint' .

# lint gates formatting and static analysis: gofmt must report no files, and
# go vet must pass (with variable-shadow checking when the external shadow
# analyzer is installed — it is optional, CI images without it still get the
# full built-in vet suite).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./... ./cmd/... ./examples/...; \
	else \
		echo "shadow analyzer not installed; skipping shadow vet"; \
	fi

# ./... covers every package in the module; cmd/ and examples/ are listed
# explicitly so the gate still covers them if the root pattern is narrowed.
vet:
	$(GO) vet ./... ./cmd/... ./examples/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short -timeout=30m ./...

race-full:
	$(GO) test -race -timeout=90m ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-smoke exercises the parallel query path end-to-end in short
# alternating passes — enough to catch a deadlock or crash in the concurrent
# pipeline without slowing CI — and -qps-guard fails the run if the median
# 4-goroutine QPS drops below the median 1-goroutine QPS (the
# parallel-scaling regression this repo once shipped: more goroutines, fewer
# queries). The same guard covers sharding: a 4-shard facade client queried
# by 4 goroutines must not fall below the 1-shard serial baseline, so
# scatter-gather fan-out can't eat the parallel speedup.
# -quant-guard fails the run if the mixed-precision cold decode is not at
# least 2x the float64 decode — the quantized kernels' reason to exist.
# It writes no BENCH.json.
bench-smoke:
	$(GO) run ./cmd/saccs-bench -only parallel,quant -parallel 4 -parallel-dur 300ms -qps-guard -quant-guard -bench-out ""

# bench-contention measures reader QPS with and without a writer
# continuously rebuilding (and republishing) the index — the
# readers-vs-rebuild cost of the snapshot-publication design. Appends
# contention rows to BENCH.json.
bench-contention:
	$(GO) run ./cmd/saccs-bench -only contention -readers 8 -contention-dur 2s

# bench-cache measures the generation-keyed extraction cache: cold vs warm
# per-sentence extraction latency, the warm hit ratio, and repeated-utterance
# query QPS with the cache off and on. Appends the cache section to
# BENCH.json.
bench-cache:
	$(GO) run ./cmd/saccs-bench -only cache -parallel-dur 2s

# bench-latency measures the end-to-end query latency distribution
# (p50/p90/p99/p999 from the request-latency histogram, plus QPS) and writes
# the latency section of BENCH.json.
bench-latency:
	$(GO) run ./cmd/saccs-bench -only latency -parallel-dur 2s

# bench-serve drives the real HTTP tier (cmd/saccs-server's stack) with an
# open-loop load generator at shard counts {1,2,4}: fixed arrival rates on a
# ladder calibrated against the 1-shard server, latency quantiles measured
# from scheduled arrival time (no coordinated omission), and the max
# sustained rate per shard count. Appends the serve section to BENCH.json.
# (The sharding regression gate lives in bench-smoke's parallel section,
# where it is independent of the machine's core count.)
bench-serve:
	$(GO) run ./cmd/saccs-bench -only serve -parallel-dur 2s

# bench-ingest measures the streaming-ingest tier on the real filesystem:
# durable append throughput under FsyncAlways and FsyncBatch, the
# durable-ack and publish-lag latency quantiles, and the crash-recovery
# replay rate at reopen. Appends the ingest section to BENCH.json.
bench-ingest:
	$(GO) run ./cmd/saccs-bench -only ingest -parallel-dur 2s

# check runs the correctness harness under the race detector: the
# internal/check differential oracles (serial vs parallel build, persisted vs
# rebuilt index, memoized vs raw similarity, serial vs concurrent query) and
# property/metamorphic checks (threshold monotonicity, tag strengthening,
# rank permutation invariance, slot word boundaries), plus every committed
# fuzz seed corpus replayed as plain regression tests.
check:
	$(GO) test -race -count=1 ./internal/check/...
	$(GO) test -race -count=1 -run '^Fuzz' ./internal/tokenize/ ./internal/search/ \
		./internal/parse/ ./internal/tagger/ ./internal/index/ ./internal/ingest/ \
		./internal/mat/

# fuzz-smoke gives each native fuzz target a bounded budget ($(FUZZTIME) per
# target). `go test -fuzz` accepts exactly one target per invocation, hence
# one line per function. New crashers land in testdata/fuzz/ — commit them.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzWords$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/tokenize/
	$(GO) test -fuzz '^FuzzSentences$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/tokenize/
	$(GO) test -fuzz '^FuzzParseUtterance$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/search/
	$(GO) test -fuzz '^FuzzBuildTree$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/parse/
	$(GO) test -fuzz '^FuzzPredictDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/tagger/
	$(GO) test -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/index/
	$(GO) test -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/ingest/
	$(GO) test -fuzz '^FuzzQuantRoundTrip$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/mat/

# cover measures total -short coverage and fails if it regresses below
# COVER_BASELINE (the value recorded from the seed tree).
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{sub(/%/, "", $$NF); print $$NF}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' \
		|| { echo "coverage regressed below $(COVER_BASELINE)%"; exit 1; }
