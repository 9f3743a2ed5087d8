# FFS-VA reproduction build targets.
#
# `make ci` is the full gate: build, vet, lint, the complete test suite
# under the race detector, the trace smoke test, the results check and
# the digest check. `make
# test` is the quick edit-compile loop; `make race` restricts -race to
# the packages whose tests share state across real goroutines, for a
# faster pre-push check.

GO ?= go

.PHONY: all build vet lint lint-self fmt-check test race ci results-check digest-check benchmark trace-smoke

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs ffslint — the repo's own four invariant analyzers (detnow,
# poolrelease, maporder, gostop: what no test pins; see DESIGN.md §12) —
# plus a gofmt cleanliness check. Frame conservation at the pipeline's
# queue edges is structural and pinned by tests instead. The run
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

# The packages whose code or tests start goroutines that share state.
# Everything on the virtual clock (queues, devices, pipeline, cluster,
# fault injection) runs one process at a time and shares nothing across
# goroutines but the clock's own handoff. The compute kernels are serial
# loops and start none, so imgproc, frame, filters, detect and train are
# not listed. What is left: par's pool hammer (goroutines trading slices
# through one SlicePool), nn's one trained net inferred on from eight
# goroutines (TestSharedNetInferAcrossGoroutines) and its pooled tensors
# under concurrent streams, vidgen's and lab's concurrent minting around
# read-only artefacts a camera shares (background plane, detector seed,
# trained weights) and lab's cache training distinct cameras at once
# (TestConcurrentTrainCameraTrainsEachOnce), the tracer, observability
# server and flight recorder, whose readers are HTTP and dump
# goroutines, and vclock, whose processes are goroutines handing the
# processor over (TestVirtualRegistryForgetsFinishedProcesses). The
# per-pixel loops run ~50x slower under the detector (vidgen ~8 min on a
# 2-vCPU host), hence the timeout above go test's 600s default.
race:
	$(GO) test -race -timeout 1800s ./internal/vclock ./internal/par ./internal/nn ./internal/vidgen ./internal/lab ./internal/trace ./internal/obs ./internal/timeline

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
	$(MAKE) digest-check

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

# digest-check runs the benchmark once, briefly, and checks each
# workload's model_digest against bench/BASELINE.json's. A digest hashes
# every stream's dispositions and ingest lag on the virtual clock, so it
# is exact and host-independent: any difference is a changed model-time
# result. Takes ~1.5 min on a 2-vCPU host.
DIGESTS = awk '/^    "[a-z_]+": \{$$/ {w = $$1} /"model_digest"/ {print w, $$2}' $(1) | tr -d '",:'
digest-check:
	bash bench/run.sh -width 1 -rounds 1 -trace 0 -out digest_check.json >/dev/null
	@$(call DIGESTS,bench/BASELINE.json) > digest_check.want
	@$(call DIGESTS,digest_check.json) > digest_check.got
	@status=0; [ -s digest_check.want ] || status=1; \
		diff digest_check.want digest_check.got || status=1; \
		rm -f digest_check.json digest_check.want digest_check.got; \
		if [ $$status -ne 0 ]; then echo "digest-check: model_digest differs from bench/BASELINE.json"; fi; \
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
