GO ?= go

.PHONY: check fmt vet build test race perfbench fuzz loc bench bench-engine obs-smoke engine-smoke guard-smoke cluster-smoke telemetry-smoke serve

## check: everything CI needs — gofmt, vet, build, tests with the race
## detector, and perfbench's own vet and tests
check: fmt vet build race perfbench

fmt:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

## perfbench: vet and test the repository benchmark, its own module
## (the root ./... never builds it), against this tree's internal
## packages — so an API change that breaks perfbench fails here, not at
## the next benchmark run
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## fuzz: run every Fuzz target outside perfbench/ for 10 s, one target
## at a time (go test -fuzz takes one); a finding fails like any test
## and leaves its input under the package's testdata/fuzz/
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build --exclude-dir=perfbench '^func Fuzz' . | sort); do \
		for fn in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz $$fn ($$(dirname $$f))"; \
			$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime 10s $$(dirname $$f); \
		done; \
	done

## loc: the code-size figure simplicity changes report — non-test Go
## lines outside perfbench/, raw and without blank and comment-only
## lines. It prints and gates nothing.
loc:
	@files="$$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*')"; \
	raw=$$(cat $$files | wc -l); \
	code=$$(cat $$files | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'); \
	echo "non-test Go lines outside perfbench/: $$raw raw, $$code without blank and comment-only lines"

## bench: one pass over every paper artifact, the service cache benchmark,
## the registry contention benchmark (single-mutex vs sharded), and the
## engine tick benchmark — which refreshes BENCH_engine.json, the
## machine-readable perf artifact (ns/chip-epoch, chips/sec, allocs/epoch)
bench: bench-engine
	$(GO) run ./cmd/selfheal-bench > /dev/null
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/store

## bench-engine: refresh BENCH_engine.json from the engine tick and
## per-epoch hooks benchmarks (10k/100k/1M chips), the td
## batch-vs-scalar kernel pair, the fleet-chip rows (fabricate, 1 h
## DC phase, averaged read, live heap), the fleet replay rows (a
## 100-chip restart after 1k/10k/100k ops), the engine replay rows
## (a 10k-chip restart after 1k/4k/16k epochs) and the engine
## checkpoint rows (one checkpoint of 10k/100k/1M chips: flush, encode,
## compaction); run as GOMAXPROCS=1 make bench-engine
bench-engine:
	$(GO) run ./scripts/bench-engine

## obs-smoke: boot a durable server with JSON logs and the debug listener,
## drive a batch through it, and verify the telemetry surface end to end —
## both metric expositions, the batch trace (journal commit visible), the
## pprof index, and a structured log line joining to the trace by trace_id
obs-smoke:
	$(GO) run ./scripts/obs-smoke

## engine-smoke: boot a durable server with the aging engine ticking fast,
## load 50k chips through the batch APIs, let 300 epochs elapse (past the
## first engine checkpoint) under concurrent monotone snapshot readers,
## check odometers, epoch lag and the capped Prometheus cardinality, then
## kill -9 and restart on the same journal and check every chip is back
engine-smoke:
	$(GO) run ./scripts/engine-smoke

## guard-smoke: boot a defended fleet and an undefended control (10k chips
## each) under the same seeded wearout adversary on manual engine clocks,
## and check bounded detection latency, the per-chip quarantine 503
## contract, ≥90% margin recovery at ≤1/3 the control's stress time, and
## the guard_* Prometheus series
guard-smoke:
	$(GO) run ./scripts/guard-smoke

## cluster-smoke: boot a three-primary fleet (consistent-hash placement,
## node a in semisync replication to a hot standby), load 100k chips via
## the batch APIs, kill -9 node a mid-traffic, promote the standby, and
## audit zero acked-op loss with /readyz converged on all three node ids.
## CLUSTER_SMOKE_CHIPS overrides the scale; CLUSTER_SMOKE_RACE=1 builds
## the server with the race detector (and defaults to 5k chips)
cluster-smoke:
	$(GO) run ./scripts/cluster-smoke

## telemetry-smoke: boot a three-primary engine-ticking fleet plus standby,
## drive a mutation through a 307 wrong_node forward under a hand-minted
## Traceparent, and check the trace id stitches across both nodes'
## /debug/traces, /v1/fleet/telemetry reports every live peer fresh with
## the margin-recovery SLO green, /metrics?federate=1 labels every node,
## and a kill -9'd node shows up stale instead of failing the fleet view.
## TELEMETRY_SMOKE_RACE=1 builds the server with the race detector
telemetry-smoke:
	$(GO) run ./scripts/telemetry-smoke

## serve: run the fleet aging service locally
serve:
	$(GO) run ./cmd/selfheal-serve
