# Tier-1 gate: what CI runs, runnable locally with `make check`.

GO ?= go

.PHONY: check fmt vet build test race race-nommap benchmark-module bench bench-obs smoke-cli smoke-metrics smoke-shard serve

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

# The one microbenchmark suite kept, because it gates: the full four-pattern
# Fig4 investigation query on the 50k-event dataset, cold-scanned, with
# and without a query span in the context. benchjson asserts the traced
# run stays within 5% of the untraced one (ns/op ratio <= 1.05, recorded
# in BENCH_obs.json), so tracing stays cheap enough to leave on for
# every execution. Speed claims are made on the end-to-end benchmark
# (go run -C benchmark .), not here.
bench: bench-obs

bench-obs:
	$(GO) test ./internal/engine/ -run XXX -bench 'BenchmarkObsFig4' \
		-benchtime=10x > bench.out 2>&1 || { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson -o BENCH_obs.json \
		-max-ratio 'BenchmarkObsFig4TraceOn/BenchmarkObsFig4TraceOff<=1.05' < bench.out
	@rm -f bench.out

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
# Then check the web UI is a static page over /api/v1: / serves the
# page, POST /api/v1/check validates a query, and the retired private
# endpoint POST /api/query is gone (404).
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
	curl -fsS 127.0.0.1:18080/ | grep -c '<title>AIQL' > /dev/null || { echo "metrics smoke: / did not serve the web UI page"; exit 1; }; \
	curl -fsS -X POST 127.0.0.1:18080/api/v1/check -d '{"query": "proc p write file f as evt return p, f"}' \
		| grep -q '"ok":true' || { echo "metrics smoke: POST /api/v1/check did not answer ok"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST 127.0.0.1:18080/api/query -d '{"query": "proc p write file f as evt return p, f"}'); \
	[ "$$code" = 404 ] || { echo "metrics smoke: POST /api/query answered $$code, want 404"; exit 1; }; \
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

# JSON API + the web UI page over it on :8080, on the built-in demo dataset.
serve:
	$(GO) run ./cmd/aiqlserver
