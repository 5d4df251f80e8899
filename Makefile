# Convenience targets for the spritefs reproduction.

GO ?= go

.PHONY: all check build benchbuild vet fmtcheck pkgdoc metricscheck docs test race faultsmoke scalecheck allocscheck soaksmoke importcheck examples fuzzcheck fuzzlong benchall profile golden experiments experiments-diff section4 section5 clean

all: check

# The gate every change must pass: compile, static checks, gofmt, package-doc
# and metrics-doc drift gates, tests, the race detector over the full
# module, a randomized fault-schedule smoke with a fixed seed, every
# program under examples/, and one iteration of every Go benchmark (they
# compile and run; no timing verdict — that is `bash bench/run.sh` +
# `spritebench compare`, see bench/README.md). benchbuild extends the
# compile gate to the nested bench/ module, which `go build ./...` at the
# root does not see. No step re-runs a subset of another: the named
# handles below (scalecheck, allocscheck, soaksmoke, importcheck,
# fuzzcheck) select tests that `test` and `race` already run, and
# internal/core's fidelity test keeps them out of this list.
check: build benchbuild vet fmtcheck pkgdoc metricscheck test race faultsmoke examples benchall

build:
	$(GO) build ./...

# bench/ is its own module (spritebench) compiled against this one's
# internal packages; vet and test it so an API change that breaks the
# benchmark fails here rather than in the benchmark driver.
benchbuild:
	cd bench && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...
	@if $(GO) vet -vettool=$$(command -v shadow) ./internal/faults/... 2>/dev/null; then \
		echo "shadow: ok"; \
	else \
		echo "shadow: tool not installed, skipping"; \
	fi

# Every Go file in the repository (bench/ included) is gofmt-clean;
# offenders are listed on stderr.
fmtcheck:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

# Every package must carry a package comment (go doc has something to
# say about every import path in the module).
pkgdoc:
	@missing=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...); \
	if [ -n "$$missing" ]; then \
		echo "packages missing a package comment:"; \
		echo "$$missing"; \
		exit 1; \
	fi; \
	echo "pkgdoc: every package documented"

# docs/METRICS.md is generated from the metric registry; fail if it has
# drifted from the code (regenerate with `go run ./cmd/metricsdoc`).
metricscheck:
	$(GO) run ./cmd/metricsdoc -check

# Regenerate the generated documentation and vet the hand-written kind:
# rewrite docs/METRICS.md from the registry, then require every package
# to carry a package comment.
docs: pkgdoc
	$(GO) run ./cmd/metricsdoc

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick randomized-schedule audit with a pinned seed (15 schedules in
# -short mode; the full 100-schedule run happens under `make test`).
faultsmoke:
	$(GO) test -short -run TestFaultSchedules ./internal/faults/check -faultseed 7

# The parallel-vs-sequential byte-identity gate by name: identical reports
# and metric dumps at 1, 4 and 8 workers, one registration per component,
# the backbone-pricing digests, the executor's round pool driven
# without shards, and the per-site minima checked against the all-pairs
# oracle. Not a `check` step: `make race` runs these tests.
scalecheck:
	$(GO) test -race -run 'TestParallelMatchesSequential|TestBackbonePricingPinned|TestDeterministicAcrossRuns|TestDetermFuzzSmoke|TestRegistration|TestRoundPool|TestSiteMinsOracle|TestExchangeNullAdvances|TestMinLinkLookahead' -count=1 ./internal/scale

# The allocation-regression gates by name: every testing.AllocsPerRun pin
# on a steady-state hot path (docs/PERFORMANCE.md lists them). Not a
# `check` step: `make test` runs these.
allocscheck:
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/sim ./internal/netsim ./internal/fscache ./internal/server ./internal/metrics ./internal/cluster ./internal/workload ./internal/live ./internal/vm

# The live-service gate by name: a 2-second in-package mini-soak under the
# race detector, then a real 5-second `serve` run with a mid-soak /metrics
# scrape. Not a `check` step: `make race` and `make test` run both.
soaksmoke:
	$(GO) test -race -run TestLiveSoakShort -count=1 ./internal/live
	$(GO) test -run TestSoakSmoke -count=1 ./cmd/serve

# The trace-import gate by name: the golden import, worker-invariant replay
# of imported traces, and importer determinism. Not a `check` step:
# `make test` runs these.
importcheck:
	$(GO) test -run 'TestImportGolden|TestImportedTrace|TestImportCSVDeterministic' -count=1 ./internal/traceio
	@echo "importcheck: ok"

# Every program under examples/ runs to completion (about a second each).
# docs/FIDELITY.md counts an example as a consumer of the API it calls
# only because this step executes it; wan-scale ends in its own
# parallel == sequential byte-identity assertion.
examples:
	@set -e; for e in examples/*/; do $(GO) run ./$$e >/dev/null; done
	@echo "examples: ok"

# Every native fuzz target, as package:Target.
FUZZTARGETS = \
	internal/sim:FuzzScheduler internal/fscache:FuzzCache \
	internal/server:FuzzNameSpace \
	internal/trace:FuzzAutoReader internal/consistency:FuzzSharedCollector \
	internal/consistency:FuzzOverhead \
	internal/traceio:FuzzImportCSV internal/traceio:FuzzImportStrace \
	internal/traceio:FuzzParseCSVMapping \
	internal/faults:FuzzParseSchedule \
	internal/live:FuzzDecodeRequest internal/live:FuzzDecodeResponse internal/live:FuzzReadFrame \
	internal/metrics:FuzzRegistry internal/vm:FuzzVM

# One pass over the seed corpus of every native fuzz target, named as
# `go test -fuzz` wants them (one target and one package per run). Not a
# `check` step: `make test` runs every seed corpus as ordinary tests.
fuzzcheck:
	@set -e; for t in $(FUZZTARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 1x ./$${t%:*}; \
	done
	@echo "fuzzcheck: ok"

# Native fuzzing past the seed corpus: every target in turn for FUZZTIME
# (`make fuzzlong FUZZTIME=10m`). Minimizing is off: left on, it stalls a
# run on its first new inputs; off, FuzzCache ran 781 908 execs in twelve
# minutes on two cores. A failing input is written under the package's
# testdata/fuzz/, where `make test` runs it as a seed from then on. Not a
# `check` step.
FUZZTIME ?= 2m
fuzzlong:
	@set -e; for t in $(FUZZTARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 0 ./$${t%:*}; \
	done
	@echo "fuzzlong: ok"

# One iteration of every Go benchmark, tests skipped: the benchmark
# functions still compile and run. Deterministic — it judges no timing.
benchall:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# CPU and heap profiles of the execution-dominated macro benchmark, plus
# pprof -top snapshots, under profiles/ — the raw material for the
# docs/PERFORMANCE.md hot-path tables. The profile run uses the largest
# single-shard-free configuration (clients=1000/shards=8) so the sweep,
# workload and metrics hot paths dominate rather than the coordinator.
profile:
	mkdir -p profiles
	$(GO) test -bench='BenchmarkScaleEngine/clients=1000/shards=8$$' -benchtime=1x -run '^$$' \
		-cpuprofile profiles/scale_cpu.out -memprofile profiles/scale_mem.out \
		-o profiles/scale.test ./internal/scale
	$(GO) tool pprof -top -nodecount 25 profiles/scale.test profiles/scale_cpu.out | tee profiles/scale_cpu_top.txt
	$(GO) tool pprof -top -nodecount 25 -sample_index=alloc_objects profiles/scale.test profiles/scale_mem.out | tee profiles/scale_alloc_top.txt

# The one re-pin handle, for an intended behaviour change: rewrite every
# file-backed golden (each test below writes its testdata under
# -update-golden) and both results files, then read the diff. Not a `check`
# step. Pins written into test source are re-pinned by hand:
#   - the RPC-stream digests in internal/cluster/rpcstream_test.go and
#     internal/scale/rpcstream_test.go;
#   - TestMigrationPlacementPinned's hash (internal/workload);
#   - the ScaleTables goldens in internal/core/scalestudy_test.go;
#   - TestBackupRecordsPinned's count and digest (internal/cluster).
golden:
	$(GO) test -count=1 -run 'TestClaimsQuick|TestReportsRenderAllTables|TestGoldenReport|TestTable4Pinned|TestSamplerLateClientsPinned|TestGoldenReplay|TestBackbonePricingPinned|TestImportGolden' \
		./internal/core ./internal/cluster ./internal/replay ./internal/scale ./internal/traceio -update-golden
	$(MAKE) section4 section5

# Full-scale regeneration of the paper's evaluation, then a diff against
# the committed results: determinism means any difference is a real
# behaviour change, not noise.
experiments: section4 section5 experiments-diff

experiments-diff:
	@git --no-pager diff --exit-code results_section4.txt results_section5.txt \
		&& echo "experiments: results match the committed files" \
		|| { echo "experiments: results drifted from the committed files (see diff above)"; exit 1; }

section4:
	$(GO) run ./cmd/experiments -exp section4 -hours 24 | tee results_section4.txt

section5:
	$(GO) run ./cmd/experiments -exp section5 -days 2 | tee results_section5.txt

clean:
	rm -f results_section4.txt results_section5.txt test_output.txt
