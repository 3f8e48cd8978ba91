GO       ?= go
FUZZTIME ?= 30s
# Every generated smoke/bench byproduct lands under $(ARTIFACTS) (ignored
# by git) instead of littering the repo root. Performance is measured by
# perfbench (bash perfbench/run.sh), which writes nothing here.
ARTIFACTS ?= artifacts

.PHONY: all build test race vet lint bench-alloc fuzz-smoke bench-json trace-smoke figure-smoke metrics-smoke timeseries-smoke

all: build vet lint test

$(ARTIFACTS):
	@mkdir -p $(ARTIFACTS)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# splicelint: the repo's own static-analysis suite (internal/analysis),
# with the full analyzer set, dead-suppression reporting, and a JSON
# findings artifact for CI. Exits non-zero on any unsuppressed finding.
lint: | $(ARTIFACTS)
	$(GO) run ./cmd/splicelint -deadignores -json ./... > $(ARTIFACTS)/splicelint.json || \
		{ cat $(ARTIFACTS)/splicelint.json; exit 1; }
	$(GO) run ./cmd/splicelint -deadignores ./...

# bench-alloc: run the //lint:hotpath benchmarks with -benchmem and fail
# on any nonzero allocs/op — the runtime half of the allocfree analyzer's
# static contract. Not run under -race (instrumentation allocates).
bench-alloc: | $(ARTIFACTS)
	$(GO) test -run='^$$' -bench='^BenchmarkHotpath' -benchmem \
		./internal/wire ./internal/trace ./internal/sim ./internal/netem > $(ARTIFACTS)/bench-alloc.txt || \
		{ cat $(ARTIFACTS)/bench-alloc.txt; exit 1; }
	@cat $(ARTIFACTS)/bench-alloc.txt
	@awk '/^BenchmarkHotpath/ { seen++; if ($$(NF-1) != 0) { print "bench-alloc: " $$1 " allocates " $$(NF-1) " allocs/op, want 0"; bad = 1 } } \
		END { if (!seen) { print "bench-alloc: no hotpath benchmarks ran"; exit 1 }; if (bad) exit 1; print "bench-alloc: " seen " hotpath benchmarks at 0 allocs/op" }' $(ARTIFACTS)/bench-alloc.txt

# bench-json: quick-scale figure regeneration as a machine-readable
# artifact (the bench trajectory's stable format), plus one pass of the
# quick figure benches as a smoke check.
bench-json: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -json > $(ARTIFACTS)/experiment-quick.json
	$(GO) test -run='^$$' -bench='^BenchmarkFig' -benchtime=1x .

# trace-smoke: regenerate Figure 2 at quick scale with per-cell trace
# artifacts (JSONL + Chrome trace + stall timeline) into the artifacts
# dir, then prove the splicetrace analyzer over them: 100% stall
# attribution and a byte-identical report across repeated runs.
# report.json is the aggregate cmd/experiment wrote; splicetrace must
# reproduce it exactly. Figure values are bit-identical with tracing on
# or off (DESIGN.md §8).
trace-smoke: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure 2 -trace $(ARTIFACTS)/trace-quick > /dev/null
	@ls $(ARTIFACTS)/trace-quick | head -6
	@echo "trace-smoke: $$(ls $(ARTIFACTS)/trace-quick | wc -l) artifacts in $(ARTIFACTS)/trace-quick/"
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/trace-quick -require-attributed > $(ARTIFACTS)/trace-report.txt
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/trace-quick -json -o $(ARTIFACTS)/trace-report-a.json
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/trace-quick -json -o $(ARTIFACTS)/trace-report-b.json
	cmp $(ARTIFACTS)/trace-report-a.json $(ARTIFACTS)/trace-report-b.json
	cmp $(ARTIFACTS)/trace-report-a.json $(ARTIFACTS)/trace-quick/report.json
	@echo "trace-smoke: splicetrace report fully attributed and byte-stable"

# timeseries-smoke: the windowed virtual-time telemetry end to end.
# Regenerates quick Figure 2 traces at two worker counts, rebuilds the
# time-series CSV from each, and requires byte-identity — the windowing
# is commutative integer aggregation, so neither reruns nor parallelism
# may move a single byte. Stall attribution must stay total on the same
# traces.
timeseries-smoke: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure 2 -trace $(ARTIFACTS)/ts-trace-w1 -workers 1 > /dev/null
	$(GO) run ./cmd/experiment -quick -figure 2 -trace $(ARTIFACTS)/ts-trace-w4 -workers 4 > /dev/null
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/ts-trace-w1 -require-attributed > /dev/null
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w1 -csv -o $(ARTIFACTS)/timeseries-a.csv
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w1 -csv -o $(ARTIFACTS)/timeseries-b.csv
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w4 -csv -o $(ARTIFACTS)/timeseries-w4.csv
	cmp $(ARTIFACTS)/timeseries-a.csv $(ARTIFACTS)/timeseries-b.csv
	cmp $(ARTIFACTS)/timeseries-a.csv $(ARTIFACTS)/timeseries-w4.csv
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w1 -o $(ARTIFACTS)/timeseries-report.txt
	@echo "timeseries-smoke: CSV byte-identical across runs and workers"

# metrics-smoke: launch the quickstart real-TCP swarm with -debug-addr,
# wait for /healthz, and validate the /metrics Prometheus exposition
# (parses + key QoE/transport series present) via `splicetrace scrape`.
metrics-smoke:
	GO="$(GO)" sh scripts/metrics-smoke.sh

# figure-smoke: every seeded-impairment figure must be bit-reproducible.
# Churn (fault injection), burst (Gilbert–Elliott loss + corruption)
# and adversary (polluters × reputation) draw only from each cell's own
# seed, so nothing may vary across runs or worker counts. Each figure
# runs twice at workers=1 (JSON byte-compared with elapsed_ms stripped)
# and once at workers=4 (compared with workers stripped too), then again
# with per-cell traces that must be 100% stall-attributed. The
# adversary report must also carry the per-peer reputation rollup.
# The per-figure targets come from a pattern rule, which make does not
# apply to .PHONY targets, so they are left out of .PHONY.
figure-smoke: figure-smoke-churn figure-smoke-burst figure-smoke-adversary

figure-smoke-%: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure $* -json -workers 1 > $(ARTIFACTS)/$*-smoke-a.json
	$(GO) run ./cmd/experiment -quick -figure $* -json -workers 1 > $(ARTIFACTS)/$*-smoke-b.json
	grep -v '"elapsed_ms"' $(ARTIFACTS)/$*-smoke-a.json > $(ARTIFACTS)/$*-smoke-a.stripped
	grep -v '"elapsed_ms"' $(ARTIFACTS)/$*-smoke-b.json > $(ARTIFACTS)/$*-smoke-b.stripped
	cmp $(ARTIFACTS)/$*-smoke-a.stripped $(ARTIFACTS)/$*-smoke-b.stripped
	$(GO) run ./cmd/experiment -quick -figure $* -json -workers 4 > $(ARTIFACTS)/$*-smoke-c.json
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/$*-smoke-a.json > $(ARTIFACTS)/$*-smoke-aw.stripped
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/$*-smoke-c.json > $(ARTIFACTS)/$*-smoke-cw.stripped
	cmp $(ARTIFACTS)/$*-smoke-aw.stripped $(ARTIFACTS)/$*-smoke-cw.stripped
	$(GO) run ./cmd/experiment -quick -figure $* -trace $(ARTIFACTS)/$*-trace-quick > /dev/null
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/$*-trace-quick -require-attributed > $(ARTIFACTS)/$*-trace-report.txt
	@[ "$*" != adversary ] || grep -q "penalized peer" $(ARTIFACTS)/$*-trace-report.txt || \
		{ echo "figure-smoke: $* report missing the reputation rollup"; exit 1; }
	@echo "figure-smoke: $* figure bit-identical across runs and workers, stalls fully attributed"

# Short fuzz pass over every fuzz target; go's fuzzer accepts one -fuzz
# pattern per package invocation, so targets run sequentially.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzReadHandshake$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/container
	$(GO) test -run='^$$' -fuzz='^FuzzReadManifest$$' -fuzztime=$(FUZZTIME) ./internal/container
	$(GO) test -run='^$$' -fuzz='^FuzzReadJSON$$' -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -run='^$$' -fuzz='^FuzzReallocate$$' -fuzztime=$(FUZZTIME) ./internal/netem
	$(GO) test -run='^$$' -fuzz='^FuzzPromRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/trace
