# FFS-VA reproduction build targets.
#
# `make ci` is the full gate: build, vet, lint, the complete test suite
# under the race detector, the trace smoke test and the results check. `make
# test` is the quick edit-compile loop; `make race` restricts -race to
# the packages whose tests share state across real goroutines, for a
# faster pre-push check.

GO ?= go

.PHONY: all build vet lint lint-self fmt-check test race ci results-check benchmark trace-smoke

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs ffslint — the repo's own eight invariant analyzers (detnow,
# putcheck, poolrelease, dispositions, qconsume, spanend, maporder,
# gostop; see DESIGN.md §12) — plus a gofmt cleanliness check. The run
# is interprocedural by default (module-wide ownership summaries) and
# must finish inside the 30s budget; the wall time is printed so drift
# is visible in CI logs. Zero unsuppressed diagnostics is the bar.
lint: fmt-check
	$(GO) run ./cmd/ffslint -budget 30s ./...

# lint-self turns the analyzers on the packages that must stay clean
# under their own rules: the analysis implementation itself, and the
# timeline flight recorder (whose dump-writer goroutine, pooled reads,
# and map iterations are exactly what gostop/poolrelease/maporder
# police).
lint-self:
	$(GO) run ./cmd/ffslint -budget 30s ./internal/analysis ./internal/timeline

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The packages whose tests exercise real goroutines against shared state.
# Everything on the virtual clock (queues, devices, pipeline, cluster,
# fault injection) runs one process at a time and shares nothing across
# goroutines but the clock's own handoff, so what is left is the
# parallel compute kernels with the one mutex-guarded buffer pool they
# all draw from (worker pool; tensor, image and frame planes; kernel
# scratch), the tracer, observability server and flight recorder, whose
# readers are HTTP and dump goroutines, and lab and train,
# which mint streams around read-only artefacts their camera shares
# (background plane, detector seed, trained weights) and train distinct
# cameras concurrently through lab's cache
# (TestConcurrentTrainCameraTrainsEachOnce), nn's one trained net
# inferred on from eight goroutines (TestSharedNetInferAcrossGoroutines),
# and vclock, whose processes are goroutines handing the processor over
# (TestVirtualRegistryForgetsFinishedProcesses). The per-pixel loops
# run ~50x slower under the detector (vidgen ~8 min, detect ~5 min on a
# 2-vCPU host), hence the timeout above go test's 600s default.
race:
	$(GO) test -race -timeout 1800s ./internal/vclock ./internal/par ./internal/nn ./internal/imgproc ./internal/frame ./internal/filters ./internal/vidgen ./internal/detect ./internal/lab ./internal/train ./internal/trace ./internal/obs ./internal/timeline

# The experiments suite alone needs ~20 min under -race (the virtual
# clock is cooperative, so the race detector's overhead doesn't
# parallelize); go test's default 600s per-binary timeout is too tight
# when the whole suite runs concurrently.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) lint-self
	$(GO) test -race -timeout 3600s ./...
	$(MAKE) trace-smoke
	$(MAKE) results-check

# results-check regenerates the deterministic evaluation tables and diffs
# them against the committed docs/results-quick.txt. Every figure in them
# is a virtual-clock result, so only the start stamp and the per-job
# "(… took …)" wall times may differ; any other line that moves is a
# changed result. Takes ~6.5 min on a 2-vCPU host.
RESULTS_JOBS = headline,table1,fig3,fig4,fig5,fig6a,fig6b,fig7,fig8,table2,fig9,fig10,ablations,extensions,cluster,consolidate
RESULTS_VOLATILE = -e ', started ' -e '^(.* took .*)$$'
results-check:
	$(GO) run ./cmd/ffsbench -scale quick -only $(RESULTS_JOBS) -o results_check.txt
	@grep -v $(RESULTS_VOLATILE) docs/results-quick.txt > results_check.want
	@grep -v $(RESULTS_VOLATILE) results_check.txt > results_check.got
	@status=0; diff results_check.want results_check.got || status=1; \
		rm -f results_check.txt results_check.want results_check.got; \
		if [ $$status -ne 0 ]; then echo "results-check: tables differ from docs/results-quick.txt"; fi; \
		exit $$status

# trace-smoke proves the Perfetto export end to end: a quickstart run
# with tracing on, structurally validated by the stdlib-only checker.
trace-smoke:
	$(GO) run ./examples/quickstart -trace trace_smoke.json >/dev/null
	$(GO) run ./cmd/tracecheck trace_smoke.json
	@rm -f trace_smoke.json

# benchmark is the repo benchmark exactly as BENCHMARK.json declares it:
# four workloads, end-to-end and per-layer metrics, model (virtual-time)
# and host (wall-time) figures, ~3 min
# (bench/README.md). Every performance claim is measured with it;
# `go run ./bench -workload offline_hightor` is the 45 s check of one
# workload, `go run ./bench -compare a.json b.json` judges two `-out`
# documents.
benchmark:
	bash bench/run.sh -width 1 -rounds 2
