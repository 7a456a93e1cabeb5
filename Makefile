# Tier-1 gate: what CI runs, runnable locally with `make check`.

GO ?= go

.PHONY: check fmt vet build test race race-nommap benchmark-module bench bench-prepare bench-ingest bench-scan bench-obs bench-shard bench-hunt smoke-cli smoke-metrics smoke-shard serve

check: fmt vet build race race-nommap benchmark-module

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The storage packages again with mmap compiled out (pread fallback):
# keeps the aiql_nommap build honest and races the same code paths the
# fallback exercises on platforms without mmap.
race-nommap:
	$(GO) test -race -tags aiql_nommap ./internal/durable/... ./internal/eventstore/...

# The end-to-end benchmark (benchmark/, see BENCHMARK.json) is a Go
# module of its own that imports internal/ through a replace directive,
# so the root ./... patterns never reach it: vet and test it here, so a
# change to an internal API that breaks it fails the gate instead of the
# benchmark pipeline.
benchmark-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# run-bench <package> <bench regex> <benchtime> <output json>: run one
# benchmark group and convert its output into the named JSON report for
# the CI perf-trajectory artifact.
define run-bench
	$(GO) test $(1) -run XXX -bench '$(2)' \
		-benchtime=$(3) > bench.out 2>&1 || { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson -o $(4) < bench.out
	@rm -f bench.out
endef

bench: bench-prepare bench-ingest bench-scan bench-obs bench-shard bench-hunt

# Prepared-statement benchmarks on the Fig4 50k dataset: per-call
# parse+plan+execute vs. compile-once/execute-many re-execution of the
# same investigation template.
bench-prepare:
	$(call run-bench,./internal/service/,BenchmarkPrepareColdPerCall|BenchmarkPreparedReexecute,50x,BENCH_prepare.json)

# Live-ingestion + standing-query benchmarks on the Fig4 50k dataset:
# per-append incremental re-evaluation (delta state + scan cache) vs.
# full re-execution (target >= 5x), plus acknowledged ingest throughput
# with and without a registered watch.
bench-ingest:
	$(call run-bench,./internal/service/,BenchmarkStandingEvalFullRescan|BenchmarkStandingEvalIncremental|BenchmarkIngestBatch$$|BenchmarkIngestBatchWatched,20x,BENCH_ingest.json)

# Parallel-scan benchmarks on the Fig4 50k-event dataset: cold full
# scans, sequential (row-at-a-time reference path) vs. the batch/bitmap
# executor at 1/2/4/8 workers, plus warm scan-cache parity. Target:
# >= 2x cold speedup at 4 workers vs. sequential.
bench-scan:
	$(call run-bench,./internal/engine/,BenchmarkScan,10x,BENCH_scan.json)

# Observability benchmarks on the Fig4 50k-event dataset: the full
# four-pattern investigation query, cold-scanned, with and without a
# query span in the context. Unlike the other bench targets this one
# gates: benchjson asserts the traced run stays within 5% of the
# untraced one (ns/op ratio <= 1.05, recorded in BENCH_obs.json), so
# tracing stays cheap enough to leave on for every execution.
bench-obs:
	$(GO) test ./internal/engine/ -run XXX -bench 'BenchmarkObsFig4' \
		-benchtime=10x > bench.out 2>&1 || { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson -o BENCH_obs.json \
		-max-ratio 'BenchmarkObsFig4TraceOn/BenchmarkObsFig4TraceOff<=1.05' < bench.out
	@rm -f bench.out

# Sharded scatter-gather benchmarks on the Fig4 50k-event dataset: cold
# full-corpus scatter + k-way merge-sort at 1, 2, and 4 local members.
# The 1-shard run is the unsharded baseline the merge overhead is read
# against.
bench-shard:
	$(call run-bench,./internal/shard/,BenchmarkShardColdScan,10x,BENCH_shard.json)

# Hunt-path benchmarks, one per stage of plan -> scan -> emit on a
# 40-host x 24-hour store of 960 segments: scheduling a join whose first
# pattern resolves to 2 000 candidate processes (probes/op is bounded by
# the segments' own distinct subjects, not by the candidate set), a cold
# full scan of the reopened v2 store returning one, three, or all six
# compressed columns (blocks/op scales with the columns returned), and a
# 50k-row stream drain with allocations per row.
bench-hunt:
	$(call run-bench,./internal/engine/,BenchmarkPlanWideEntitySet|BenchmarkScanProjected|BenchmarkStreamDrain,10x,BENCH_hunt.json)

# The command-line path end to end: aiqlgen writes a 5000-event store
# directory, and a query through aiql over it must return rows.
smoke-cli:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) run ./cmd/aiqlgen -out $$tmp -events 5000 || exit 1; \
	$(GO) run ./cmd/aiql -data $$tmp -stats=false \
		-query 'proc p write file f as evt return distinct p, f' > $$tmp/rows.out || exit 1; \
	rows=$$(($$(wc -l < $$tmp/rows.out) - 2)); \
	[ $$rows -gt 0 ] || { echo "cli smoke: the query returned no rows:"; cat $$tmp/rows.out; exit 1; }; \
	echo "cli smoke OK ($$rows rows)"

# Boot aiqlserver on the built-in demo dataset, scrape /metrics on both
# the API and ops listeners, and lint the expositions with promlint.
smoke-metrics:
	$(GO) build -o aiqlserver.smoke ./cmd/aiqlserver
	@./aiqlserver.smoke -addr 127.0.0.1:18080 -ops-addr 127.0.0.1:18081 & \
	pid=$$!; trap 'kill $$pid 2>/dev/null; rm -f aiqlserver.smoke metrics.smoke' EXIT; \
	ok=0; for i in $$(seq 1 100); do \
		if curl -fsS 127.0.0.1:18080/metrics > metrics.smoke 2>/dev/null; then ok=1; break; fi; \
		sleep 0.2; done; \
	[ $$ok -eq 1 ] || { echo "aiqlserver never served /metrics"; exit 1; }; \
	$(GO) run ./cmd/promlint < metrics.smoke || exit 1; \
	curl -fsS 127.0.0.1:18081/metrics | $(GO) run ./cmd/promlint || exit 1; \
	curl -fsS -o /dev/null 127.0.0.1:18081/debug/pprof/cmdline || exit 1; \
	echo "metrics smoke OK"

# Sharded-deployment smoke: two member aiqlservers (each serving the
# built-in 50k-event demo dataset) behind one coordinator running the
# partition map, exercised end to end over the wire — readiness via
# /api/v1/healthz, a scatter-gather Fig4 investigation, a LIMIT-
# paginated cursor walk, and a promlint-checked scrape of the
# coordinator's aiql_shard_* metrics.
smoke-shard:
	$(GO) build -o aiqlserver.smoke ./cmd/aiqlserver
	@printf '%s\n' '{"datasets":[{"dataset":"fig4","members":[{"name":"m1","url":"http://127.0.0.1:18091","dataset":"demo"},{"name":"m2","url":"http://127.0.0.1:18092","dataset":"demo"}]}]}' > shards.smoke.json; \
	./aiqlserver.smoke -addr 127.0.0.1:18091 & m1=$$!; \
	./aiqlserver.smoke -addr 127.0.0.1:18092 & m2=$$!; \
	./aiqlserver.smoke -addr 127.0.0.1:18090 -shards shards.smoke.json & co=$$!; \
	trap 'kill $$m1 $$m2 $$co 2>/dev/null; \
		rm -f aiqlserver.smoke shards.smoke.json shard.smoke page1.smoke page2.smoke metrics.shard.smoke' EXIT; \
	ok=0; for i in $$(seq 1 150); do \
		if curl -fsS -o /dev/null 127.0.0.1:18091/api/v1/healthz 2>/dev/null && \
		   curl -fsS -o /dev/null 127.0.0.1:18092/api/v1/healthz 2>/dev/null && \
		   curl -fsS -o /dev/null 127.0.0.1:18090/api/v1/healthz 2>/dev/null; then ok=1; break; fi; \
		sleep 0.2; done; \
	[ $$ok -eq 1 ] || { echo "shard smoke: servers never became healthy"; exit 1; }; \
	curl -fsS -X POST 127.0.0.1:18090/api/v1/query \
		-d '{"query": "(at \"05/10/2018\") agentid = 1 proc p accept ip i[srcip = \"203.0.113.129\"] as evt return distinct p, i.src_ip"}' \
		> shard.smoke || { echo "shard smoke: scatter-gather query failed"; exit 1; }; \
	grep -q '"total_rows":[1-9]' shard.smoke || { echo "shard smoke: scatter-gather returned no rows:"; cat shard.smoke; exit 1; }; \
	curl -fsS -X POST 127.0.0.1:18090/api/v1/query \
		-d '{"query": "proc p write file f as evt return p, f", "limit": 5}' \
		> page1.smoke || { echo "shard smoke: paginated query failed"; exit 1; }; \
	cur=$$(sed -n 's/.*"next_cursor":"\([^"]*\)".*/\1/p' page1.smoke); \
	[ -n "$$cur" ] || { echo "shard smoke: no next_cursor on page 1:"; cat page1.smoke; exit 1; }; \
	curl -fsS -X POST 127.0.0.1:18090/api/v1/query \
		-d "{\"query\": \"proc p write file f as evt return p, f\", \"limit\": 5, \"cursor\": \"$$cur\"}" \
		> page2.smoke || { echo "shard smoke: cursor page failed"; exit 1; }; \
	grep -q '"offset":5' page2.smoke || { echo "shard smoke: page 2 offset wrong:"; cat page2.smoke; exit 1; }; \
	curl -fsS 127.0.0.1:18090/metrics > metrics.shard.smoke || exit 1; \
	$(GO) run ./cmd/promlint < metrics.shard.smoke || exit 1; \
	grep -q 'aiql_shard_fanouts_total' metrics.shard.smoke || { echo "shard smoke: no aiql_shard_* series in the exposition"; exit 1; }; \
	echo "shard smoke OK"

# Web UI + JSON API on :8080 over the built-in demo dataset.
serve:
	$(GO) run ./cmd/aiqlserver
