# Tier-1 gate: everything `make check` runs must stay green.

GO ?= go
GOTEST_TIMEOUT ?= 20m

.PHONY: check ci build test race vet fmt lint staticcheck vulncheck cover fuzz fuzz-smoke bench bench-faults bench-compare bench-guard bench-tables bench-tables-report bench-tables-recover study-smoke recover-smoke cluster-smoke soak

# cover runs the whole suite under -race, so it subsumes the race target.
check: fmt vet cover study-smoke recover-smoke cluster-smoke

# ci mirrors the GitHub Actions pipeline locally: the tier-1 gate, the
# lint pass, the short fuzz pass and the benchmark regression guard.
ci: check lint fuzz-smoke bench-guard
	@echo "ci OK"

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(GOTEST_TIMEOUT) ./...

# The chaos tests ride along in the regular packages, so -race covers the
# fault-injection and retry paths too.
race:
	$(GO) test -race -timeout $(GOTEST_TIMEOUT) ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond vet. The staticcheck binary is pinned so CI
# results are reproducible; when it is neither installed nor fetchable
# (an offline dev box) the target warn-skips instead of failing — CI
# always runs it for real.
lint: fmt vet staticcheck

STATICCHECK_VERSION ?= 2025.1.1
STATICCHECK_BIN ?= /tmp/arrow-tools/staticcheck
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -x $(STATICCHECK_BIN) ]; then \
		$(STATICCHECK_BIN) ./...; \
	elif mkdir -p $(dir $(STATICCHECK_BIN)) && \
		GOBIN=$(abspath $(dir $(STATICCHECK_BIN))) $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) 2>/dev/null; then \
		$(STATICCHECK_BIN) ./...; \
	else \
		echo "staticcheck: not installed and module proxy unreachable; skipping (CI runs the pinned $(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan over the module graph and the reachable call
# graph. Advisory, not a gate: the CI job runs it with continue-on-error
# and uploads the report, so a fresh CVE in a dependency surfaces as an
# artifact without blocking unrelated merges. Gated like staticcheck for
# offline dev boxes.
GOVULNCHECK_VERSION ?= v1.1.4
GOVULNCHECK_BIN ?= /tmp/arrow-tools/govulncheck
VULN_OUT ?= /tmp/arrow-govulncheck.txt
vulncheck:
	@bin=""; \
	if command -v govulncheck >/dev/null 2>&1; then \
		bin=govulncheck; \
	elif [ -x $(GOVULNCHECK_BIN) ]; then \
		bin=$(GOVULNCHECK_BIN); \
	elif mkdir -p $(dir $(GOVULNCHECK_BIN)) && \
		GOBIN=$(abspath $(dir $(GOVULNCHECK_BIN))) $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) 2>/dev/null; then \
		bin=$(GOVULNCHECK_BIN); \
	fi; \
	if [ -z "$$bin" ]; then \
		echo "govulncheck: not installed and module proxy unreachable; skipping (CI runs the pinned $(GOVULNCHECK_VERSION))" | tee $(VULN_OUT); \
	else \
		$$bin ./... >$(VULN_OUT) 2>&1; st=$$?; cat $(VULN_OUT); exit $$st; \
	fi

# Race-detected coverage gate: the whole suite runs under -race with
# statement coverage, and the total must not fall below the baseline.
# Raise the baseline when coverage improves; never lower it to ship.
COVER_BASELINE ?= 82.0
COVER_PROFILE ?= /tmp/arrow-cover.out
cover:
	$(GO) test -race -timeout $(GOTEST_TIMEOUT) -coverprofile=$(COVER_PROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit !(t+0 < b+0) }' && \
		{ echo "coverage $$total% fell below the $(COVER_BASELINE)% baseline"; exit 1; } || true

# Fuzz the trace decoders, the cache shard loader, the serve-layer
# request decoders, the session journal's line decoder, shard recovery
# scan and CRC'd snapshot payload decoder, and the forest's tree growth
# against its per-candidate reference grower, FUZZTIME each.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeLine -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run xxx -fuzz FuzzReadAll -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run xxx -fuzz FuzzLoadShard -fuzztime $(FUZZTIME) ./internal/runcache
	$(GO) test -run xxx -fuzz FuzzDecodeSessionRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzDecodeObserveRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzDecodeNextBatchRequest -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzDecodeLine -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run xxx -fuzz FuzzScanShard -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run xxx -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run xxx -fuzz FuzzGrowMatchesReference -fuzztime $(FUZZTIME) ./internal/forest

# The CI-sized fuzz pass: every target for 10s — long enough to catch a
# decoder regression, short enough for every push.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

bench-faults:
	$(GO) test -run xxx -bench BenchmarkRobustnessFaultInjection -benchtime 1x .

# Hot-path benchmarks with a fixed iteration count, recorded as a JSON
# report so performance changes land as a reviewable diff. The fixed
# -benchtime keeps runs comparable across machines with different
# auto-calibration.
BENCH_OUT ?= BENCH_PR9.json
BENCH_RAW ?= /tmp/arrow-bench-raw.txt
bench:
	$(GO) test -run xxx -benchmem -benchtime 20x \
		-bench 'BenchmarkForestFit$$|BenchmarkGPFit|BenchmarkFullSearchNaive|BenchmarkFullSearchAugmented' . \
		> /tmp/arrow-bench-root.txt
	$(GO) test -run xxx -benchmem -benchtime 300x \
		-bench 'BenchmarkAdvisorNext' . \
		> /tmp/arrow-bench-advisor.txt
	$(GO) test -run xxx -benchmem -benchtime 20x \
		-bench 'BenchmarkForestFitParallel|BenchmarkForestPredictPairs|BenchmarkForestRefit' ./internal/forest \
		> /tmp/arrow-bench-forest.txt
	$(GO) test -run xxx -benchmem -benchtime 50x \
		-bench 'BenchmarkGPExtend' ./internal/gp \
		> /tmp/arrow-bench-gp.txt
	$(GO) test -run xxx -benchmem -benchtime 200x \
		-bench 'BenchmarkAugmentedIteration' ./internal/core \
		> /tmp/arrow-bench-core.txt
	$(GO) test -run xxx -benchmem -benchtime 300x \
		-bench 'BenchmarkServeSession|BenchmarkServeJSONPlumbing|BenchmarkServeNextPipelined' ./internal/serve \
		> /tmp/arrow-bench-serve.txt
	$(GO) test -run xxx -benchmem -benchtime 1x \
		-bench 'BenchmarkStudyThroughputCold' ./internal/study \
		> /tmp/arrow-bench-study.txt
	$(GO) test -run xxx -benchmem -benchtime 500x \
		-bench 'BenchmarkStudyThroughputWarm' ./internal/study \
		> /tmp/arrow-bench-study-warm.txt
	$(GO) test -run xxx -benchmem -benchtime 20x -timeout 40m \
		-bench 'BenchmarkRecoverSnapshot$$' ./internal/serve \
		> /tmp/arrow-bench-recover.txt
	$(GO) test -run xxx -benchmem -benchtime 3x -timeout 40m \
		-bench 'BenchmarkRecoverFullReplay' ./internal/serve \
		>> /tmp/arrow-bench-recover.txt
	cat /tmp/arrow-bench-root.txt /tmp/arrow-bench-advisor.txt \
		/tmp/arrow-bench-forest.txt /tmp/arrow-bench-gp.txt \
		/tmp/arrow-bench-core.txt /tmp/arrow-bench-serve.txt \
		/tmp/arrow-bench-study.txt /tmp/arrow-bench-study-warm.txt \
		/tmp/arrow-bench-recover.txt \
		> $(BENCH_RAW)
	$(GO) run ./cmd/arrow-bench -o $(BENCH_OUT) < $(BENCH_RAW)
	@echo "wrote $(BENCH_OUT)"

# Diff the current report against the previous PR's baseline.
bench-compare:
	$(GO) run ./cmd/arrow-bench -compare BENCH_PR8.json BENCH_PR9.json

# Quartile summary of the refit-sensitive hot paths: each benchmark runs
# BENCH_TABLE_COUNT times and the samples render as a q1/median/q3 table
# (add BENCH_TABLE_FLAGS=-markdown for a PR-pasteable version).
BENCH_TABLE_COUNT ?= 5
BENCH_TABLE_FLAGS ?=
bench-tables:
	$(GO) test -run xxx -benchmem -benchtime 20x -count $(BENCH_TABLE_COUNT) \
		-bench 'BenchmarkForestFit$$|BenchmarkForestRefit' ./internal/forest \
		> /tmp/arrow-bench-tables.txt
	$(GO) test -run xxx -benchmem -benchtime 20x -count $(BENCH_TABLE_COUNT) \
		-bench 'BenchmarkGPExtend' ./internal/gp >> /tmp/arrow-bench-tables.txt
	$(GO) test -run xxx -benchmem -benchtime 30x -count $(BENCH_TABLE_COUNT) \
		-bench 'BenchmarkAugmentedIteration' ./internal/core >> /tmp/arrow-bench-tables.txt
	$(GO) run ./cmd/arrow-bench -tables $(BENCH_TABLE_FLAGS) < /tmp/arrow-bench-tables.txt

# Render the table from an existing raw run (the one bench/bench-guard
# just measured into BENCH_RAW) without re-measuring anything — what the
# CI success path appends to the job summary.
bench-tables-report:
	$(GO) run ./cmd/arrow-bench -tables $(BENCH_TABLE_FLAGS) < $(BENCH_RAW)

# Quartile table for the recovery-latency contract alone: snapshot
# restore vs full replay of the same 300-observation session, sampled
# BENCH_TABLE_COUNT times (this is the table EXPERIMENTS.md quotes).
bench-tables-recover:
	$(GO) test -run xxx -benchmem -benchtime 1x -timeout 60m -count $(BENCH_TABLE_COUNT) \
		-bench 'BenchmarkRecoverSnapshot|BenchmarkRecoverFullReplay' ./internal/serve \
		> /tmp/arrow-bench-tables-recover.txt
	$(GO) run ./cmd/arrow-bench -tables $(BENCH_TABLE_FLAGS) < /tmp/arrow-bench-tables-recover.txt

# Regression guard: re-measure the hot paths into a scratch report and
# fail when a headline benchmark regressed more than its budget, with
# the measured run rendered as a quartile table first so a CI failure
# shows readable numbers in the job log instead of raw JSON. The
# budgets are 5% — several PRs of same-machine baselines show the
# fixed-iteration runs holding well inside that band. BenchmarkForestFit
# (the plain one-shot fit, untouched by PR 7) still guards against
# BENCH_PR5.json; the search-loop and refit benchmarks guard against
# BENCH_PR7.json because PR 7 changed the sampling scheme and made
# refits incremental, so older entries measure a different computation,
# and StudyThroughputWarm re-anchors there too because its protocol
# changed again (50 -> 500 iterations: post-speedup the 50x run timed
# only ~10 ms, which swung far past any honest budget).
# BenchmarkAdvisorNext and BenchmarkServeSession re-anchor against
# BENCH_PR8.json with 5% budgets: PR 8 raised their fixed iteration
# count to 300x, which tightened the run-to-run spread enough to guard
# the k=1 serving path (the speculation PR must not tax the sequential
# loop), and the PR7-era 100x entries measure a different protocol.
# BenchmarkAdvisorNextBatch and BenchmarkServeNextPipelined are
# recorded but not guarded — their headline numbers are the latency
# quantile extras, which the guard does not read; track them via
# bench-compare. The committed BENCH_PR8.json entries are per-benchmark
# medians of three runs.
# BenchmarkRecoverSnapshot and BenchmarkRecoverFullReplay are new in
# PR 9 and guard against BENCH_PR9.json at 5%: the snapshot restore is
# the recovery-time contract (`p99 bounded by the snapshot interval`)
# and the full-replay baseline is what keeps the ≥5x headline honest.
# Everything previously guarded keeps its anchor — PR 9 did not change
# any measured protocol.
BENCH_GUARD ?= BenchmarkForestFit=5
BENCH_GUARD_PR7 ?= BenchmarkAugmentedIteration=5,BenchmarkFullSearchAugmented=5,BenchmarkForestRefitIncremental=5,BenchmarkGPExtend=5,BenchmarkStudyThroughputWarm=5
BENCH_GUARD_PR8 ?= BenchmarkAdvisorNext=5,BenchmarkServeSession=5
BENCH_GUARD_PR9 ?= BenchmarkRecoverSnapshot=5,BenchmarkRecoverFullReplay=5
BENCH_GUARD_OUT ?= /tmp/arrow-bench-guard.json
bench-guard:
	$(MAKE) bench BENCH_OUT=$(BENCH_GUARD_OUT)
	$(GO) run ./cmd/arrow-bench -tables < $(BENCH_RAW)
	$(GO) run ./cmd/arrow-bench -compare -guard '$(BENCH_GUARD)' BENCH_PR5.json $(BENCH_GUARD_OUT)
	$(GO) run ./cmd/arrow-bench -compare -guard '$(BENCH_GUARD_PR7)' BENCH_PR7.json $(BENCH_GUARD_OUT)
	$(GO) run ./cmd/arrow-bench -compare -guard '$(BENCH_GUARD_PR8)' BENCH_PR8.json $(BENCH_GUARD_OUT)
	$(GO) run ./cmd/arrow-bench -compare -guard '$(BENCH_GUARD_PR9)' BENCH_PR9.json $(BENCH_GUARD_OUT)

# Race-detected end-to-end smoke of the study executor: a cold run fills
# the cache, a warm run at a different -concurrency must reproduce the
# same stdout and CSV bytes, and the throughput benchmarks run once
# under -race.
SMOKE_DIR ?= /tmp/arrow-study-smoke
SMOKE_WORKLOADS = als/spark2.1/medium,pagerank/hadoop2.7/medium,lr/spark1.5/medium,terasort/hadoop2.7/large
study-smoke:
	rm -rf $(SMOKE_DIR)
	mkdir -p $(SMOKE_DIR)/cold $(SMOKE_DIR)/warm
	$(GO) run -race ./cmd/arrow-study -seeds 2 -concurrency 4 \
		-workloads '$(SMOKE_WORKLOADS)' -figures fig1,fig9,fig12 \
		-out $(SMOKE_DIR)/cold -cache-dir $(SMOKE_DIR)/cache \
		-trace $(SMOKE_DIR)/cold-trace.jsonl \
		> $(SMOKE_DIR)/cold.txt
	$(GO) run -race ./cmd/arrow-study -seeds 2 -concurrency 2 \
		-workloads '$(SMOKE_WORKLOADS)' -figures fig1,fig9,fig12 \
		-out $(SMOKE_DIR)/warm -cache-dir $(SMOKE_DIR)/cache \
		-trace $(SMOKE_DIR)/warm-trace.jsonl \
		> $(SMOKE_DIR)/warm.txt
	diff $(SMOKE_DIR)/cold.txt $(SMOKE_DIR)/warm.txt
	diff -r $(SMOKE_DIR)/cold $(SMOKE_DIR)/warm
	sed -E 's/,"wall":\{[^}]*\}//' $(SMOKE_DIR)/cold-trace.jsonl > $(SMOKE_DIR)/cold-trace.stripped
	sed -E 's/,"wall":\{[^}]*\}//' $(SMOKE_DIR)/warm-trace.jsonl > $(SMOKE_DIR)/warm-trace.stripped
	diff $(SMOKE_DIR)/cold-trace.stripped $(SMOKE_DIR)/warm-trace.stripped
	$(GO) test -race -run xxx -benchtime 1x -bench 'BenchmarkStudyThroughput' ./internal/study
	@echo "study smoke OK: cold and warm runs and wall-stripped traces byte-identical"

# Race-detected crash-recovery smoke: the kill -9 chaos test (a real
# arrow-serve process SIGKILLed mid-session, restarted, every session
# finished with a byte-identical result) plus the serve-layer recovery
# suite — damaged journals, rolling restarts, two-replica partitions.
recover-smoke:
	$(GO) test -race -run 'TestServeCLIKillNineRecovery' ./cmd/arrow-serve
	$(GO) test -race -run 'TestCrashRecover|TestGracefulShutdownRehydrates|TestRecover|TestTwoReplicas' ./internal/serve
	@echo "recover smoke OK: kill -9 and restart lost zero acknowledged observations"

# Race-detected registry-cluster smoke: one process hosts the shard
# registry, three replicas with separate journal directories lease from
# it over HTTP; one is SIGKILLed (heartbeat-expiry reclaim with epoch
# bumps, cross-directory session adoption) and one is SIGTERMed with
# -drain-migrate (live sessions streamed to a successor). Fast enough
# to ride every push.
cluster-smoke:
	$(GO) test -race -run 'TestRegistryClusterSmoke' ./cmd/arrow-serve
	@echo "cluster smoke OK: registry failover and drain migration lost zero acknowledged observations"

# The multi-replica chaos/soak harness at nightly scale: ARROW_SOAK_SESSIONS
# concurrent sessions across 4 real arrow-serve processes sharing one
# journal directory, snapshots every 2 observations, shard compaction
# running concurrently, one replica SIGKILLed mid-traffic and its shard
# leases reclaimed by the survivors — all under the race detector.
# Asserted: zero lost acked observations, sampled results byte-identical
# to a journal-less reference server, reclaim recovery p99 bounded by
# the snapshot interval. The same test rides `make check` (via cover) at
# its 120-session short default; this target is the 10k nightly run.
# ARROW_SOAK_OUT collects a machine-readable summary (session count,
# journal bytes, compactions, reclaim p99) for the CI artifact.
# REGISTRY=1 soaks the cross-host topology instead: a registry process
# and per-replica journal directories with heartbeat leases, so the
# victim's sessions are adopted by scanning its directory rather than
# through a shared journal.
ARROW_SOAK_SESSIONS ?= 10000
ARROW_SOAK_OUT ?= /tmp/arrow-soak.json
REGISTRY ?= 0
soak:
	ARROW_SOAK_SESSIONS=$(ARROW_SOAK_SESSIONS) ARROW_SOAK_OUT=$(ARROW_SOAK_OUT) \
		ARROW_SOAK_REGISTRY=$(REGISTRY) \
		$(GO) test -race -timeout 120m -run 'TestSoakMultiReplicaChaos' -v ./cmd/arrow-serve
	@echo "soak OK: summary in $(ARROW_SOAK_OUT)"
