# `make check` is the pre-merge gate: tier-1 tests plus the quick
# bench (the sweep, and the ablations, which run the jobs sweep
# first), both under ZKFLOW_JOBS=2 so the Domain-pool code paths are
# exercised even where the default would be sequential, plus the
# static analyzer over the built-in guests and every example query.
#
# Every bench run here except `make baselines` runs the bench binary
# from the gitignored smoke-out/, where it writes its BENCH_*.json and
# REPORT.md, so no smoke run touches the committed baselines.
.PHONY: all build test check lint audit audit-sarif baselines bench-smoke \
        watch-smoke serve-smoke perfbench-smoke chaos matrix report

SMOKE := smoke-out
BENCH := $(CURDIR)/_build/default/bench/main.exe

all: build

build:
	dune build

test:
	dune runtest

# Static analysis of the built-in guests (always checked) and the
# example Zirc queries. Fails on any Error-severity finding.
lint: build
	dune exec bin/zkflow.exe -- lint examples/*.zirc

# Full static audit: lint/value analysis plus taint tracking of
# untrusted telemetry inputs, compared against the committed baseline
# (audit-baseline.txt) so only NEW findings fail. After fixing or
# accepting findings, regenerate with:
#   dune exec bin/zkflow.exe -- audit --builtins examples/*.zirc \
#     --update-baseline audit-baseline.txt
audit: build
	dune exec bin/zkflow.exe -- audit --builtins examples/*.zirc \
	  --baseline audit-baseline.txt

# Same audit as a SARIF artifact (audit.sarif) for code-scanning UIs:
# the log goes to stdout while the baseline comparison decides the
# exit code (new findings are listed on stderr).
audit-sarif: build
	dune exec bin/zkflow.exe -- audit --builtins examples/*.zirc --sarif \
	  --baseline audit-baseline.txt > audit.sarif

check: build lint audit
	ZKFLOW_JOBS=2 dune runtest --force
	mkdir -p $(SMOKE)
	cd $(SMOKE) && ZKFLOW_JOBS=2 ZKFLOW_BENCH_QUICK=1 $(BENCH) sweep
	cd $(SMOKE) && ZKFLOW_JOBS=2 ZKFLOW_BENCH_QUICK=1 $(BENCH) ablations

# The only writer of the committed BENCH_*.json and REPORT.md: one
# `bench all` process over the full grids at one job. Run it from a
# clean checkout so every artifact's env block records the commit
# with git_dirty false.
baselines: build
	ZKFLOW_JOBS=1 ZKFLOW_BENCH_QUICK=0 $(BENCH) all

# Tiny end-to-end pipeline under telemetry: simulate, prove with a
# Chrome trace, the flight-recorder event log and the counter
# snapshot, verify, then validate the artifacts
# (trace_event schema; event-log JSONL with monotone per-track
# timestamps and router-before-verifier causality; counters) and
# replay the log into a strict health report and a strict SLO
# verdict. Every scratch artifact lands in the gitignored smoke-out/
# so a local run never dirties the working tree. CI uploads the trace
# and the health report as artifacts. The simulation spans 3 epochs
# over 200 flows so the prover chains multiple rounds; the --require
# assertion proves that tree builds copied equal-neighbour slots
# (padding, repeated journal-accumulator leaves) instead of hashing
# them.
bench-smoke: build
	rm -rf $(SMOKE)/state $(SMOKE)/trace-smoke.json $(SMOKE)/stats-smoke.json \
	  $(SMOKE)/health-smoke.json
	mkdir -p $(SMOKE)
	dune exec bin/zkflow.exe -- simulate --dir $(SMOKE)/state \
	  --routers 2 --flows 200 --rate 20 --duration 12000 \
	  --events $(SMOKE)/state/events.jsonl
	ZKFLOW_JOBS=2 dune exec bin/zkflow.exe -- prove --dir $(SMOKE)/state \
	  --queries 8 --trace $(SMOKE)/trace-smoke.json \
	  --events $(SMOKE)/state/events.jsonl \
	  --stats $(SMOKE)/stats-smoke.json
	ZKFLOW_JOBS=2 dune exec bin/zkflow.exe -- verify --dir $(SMOKE)/state \
	  --events $(SMOKE)/state/events.jsonl
	dune exec bin/zkflow.exe -- trace-check $(SMOKE)/trace-smoke.json \
	  --min-names 5 --events $(SMOKE)/state/events.jsonl \
	  --counters $(SMOKE)/stats-smoke.json --require merkle.nodes_copied=1
	dune exec bin/zkflow.exe -- stats --dir $(SMOKE)/state --json
	dune exec bin/zkflow.exe -- monitor --dir $(SMOKE)/state --strict
	dune exec bin/zkflow.exe -- slo --dir $(SMOKE)/state --strict
	dune exec bin/zkflow.exe -- monitor --dir $(SMOKE)/state --json \
	  > $(SMOKE)/health-smoke.json
	$(MAKE) report

# The artifact telemetry plane end to end: record a small proved run's
# event log, validate every endpoint schema offline via --probe, then
# serve the log over the embedded HTTP server and curl all three
# endpoints. CI uploads the log and the probe outputs.
watch-smoke: build
	rm -rf $(SMOKE)/watch
	mkdir -p $(SMOKE)/watch
	dune exec bin/zkflow.exe -- simulate --dir $(SMOKE)/watch/state \
	  --routers 2 --flows 60 --rate 20 --duration 6000 \
	  --events $(SMOKE)/watch/state/events.jsonl
	ZKFLOW_JOBS=2 dune exec bin/zkflow.exe -- prove --dir $(SMOKE)/watch/state \
	  --queries 8 --events $(SMOKE)/watch/state/events.jsonl
	dune exec bin/zkflow.exe -- slo --dir $(SMOKE)/watch/state --strict --json \
	  > $(SMOKE)/watch/slo.json
	dune exec bin/zkflow.exe -- watch --dir $(SMOKE)/watch/state \
	  --probe /healthz > $(SMOKE)/watch/healthz.json
	dune exec bin/zkflow.exe -- watch --dir $(SMOKE)/watch/state \
	  --probe /metrics > $(SMOKE)/watch/metrics.txt
	python3 -c "import json; json.load(open('$(SMOKE)/watch/slo.json'))"
	python3 -c "import json; d=json.load(open('$(SMOKE)/watch/healthz.json')); \
	  assert d['schema'] == 'zkflow-healthz/v1' and d['healthy'] is True"
	grep -q '^zkflow_' $(SMOKE)/watch/metrics.txt
	./_build/default/bin/zkflow.exe watch --dir $(SMOKE)/watch/state \
	  --listen 19464 & pid=$$!; sleep 1; \
	  ok=0; \
	  curl -sf http://127.0.0.1:19464/metrics | grep -q '^zkflow_' && \
	  curl -sf http://127.0.0.1:19464/healthz | grep -q 'zkflow-healthz/v1' && \
	  curl -sf http://127.0.0.1:19464/slo | grep -q 'zkflow-slo/v1' || ok=1; \
	  kill $$pid; exit $$ok
	@echo "watch-smoke: all endpoints schema-valid"

# The resident daemon end to end: simulate a small run, start `zkflow
# serve` in the background, wait until /status reports both replayed
# epochs proved (queries before that land on a moving root, which
# defeats the memo check by design) and /healthz is green, exercise
# the proof-backed query plane (the second identical query must come
# from the memo cache), then SIGTERM and require a clean drain: exit
# 0, the flushed event log must satisfy the strict SLO verdict, and the
# receipts.bin the drain wrote must verify against the board.txt it
# wrote. This is the daemon-lifecycle contract CI enforces: graceful
# shutdown is not best-effort.
serve-smoke: build
	rm -rf $(SMOKE)/serve
	mkdir -p $(SMOKE)/serve
	dune exec bin/zkflow.exe -- simulate --dir $(SMOKE)/serve/state \
	  --routers 2 --flows 60 --rate 20 --duration 6000
	./_build/default/bin/zkflow.exe serve --dir $(SMOKE)/serve/state \
	  --listen 19465 > $(SMOKE)/serve/serve.log 2>&1 & pid=$$!; \
	  ok=0; up=1; \
	  for i in $$(seq 1 100); do \
	    curl -sf http://127.0.0.1:19465/status | grep -q '"rounds":2' \
	      && up=0 && break; \
	    sleep 0.2; \
	  done; \
	  [ $$up -eq 0 ] && \
	  curl -sf http://127.0.0.1:19465/healthz >/dev/null && \
	  curl -sf http://127.0.0.1:19465/status | grep -q 'zkflow-daemon-status/v1' && \
	  curl -sf 'http://127.0.0.1:19465/query?metric=packets&op=count' \
	    | grep -q '"cached":false' && \
	  curl -sf 'http://127.0.0.1:19465/query?metric=packets&op=count' \
	    | grep -q '"cached":true' && \
	  curl -sf 'http://127.0.0.1:19465/flows?first=3' | grep -q '"rows"' && \
	  curl -sf http://127.0.0.1:19465/metrics | grep -q '^zkflow_' || ok=1; \
	  kill -TERM $$pid; \
	  wait $$pid || ok=1; \
	  cat $(SMOKE)/serve/serve.log; exit $$ok
	dune exec bin/zkflow.exe -- slo --dir $(SMOKE)/serve/state --strict
	dune exec bin/zkflow.exe -- verify --dir $(SMOKE)/serve/state
	@echo "serve-smoke: daemon served, drained cleanly, SLOs green, receipts verified"

# The end-to-end benchmark (BENCHMARK.json, perfbench/) checked at
# smoke size, about 30 s: every workload prints every declared metric
# with no failed op, a tampered window counts as exactly one failed
# op, and the harness fails cleanly in a directory without the
# program's sources. See perfbench/README.md for full-size runs.
perfbench-smoke: build
	python3 perfbench/selftest.py

# The proof-backend benchmark matrix (DESIGN.md §14): one aggregation
# round per cell across backend × queries × scale, the committed
# shape (full grid, one job) rerun into smoke-out/BENCH_matrix.json.
matrix: build
	mkdir -p $(SMOKE)
	cd $(SMOKE) && ZKFLOW_JOBS=1 ZKFLOW_BENCH_QUICK=0 $(BENCH) matrix

# Rerun the matrix and render smoke-out/REPORT.md (+ a machine-readable
# twin) from it — the cost/soundness frontier report CI uploads.
report: matrix
	dune exec bin/zkflow.exe -- report $(SMOKE)/BENCH_matrix.json > $(SMOKE)/REPORT.md
	dune exec bin/zkflow.exe -- report $(SMOKE)/BENCH_matrix.json --json > $(SMOKE)/report.json
	@echo "report: wrote $(SMOKE)/REPORT.md and $(SMOKE)/report.json"

# Deterministic fault-injection matrix: 8 seeded random plans plus the
# curated ones under chaos/plans/, every one aimed at the resident
# daemon (the pipeline `zkflow serve` runs). Every run must end
# verified — either complete or explicitly degraded (safety: the final
# root is bit-identical to an uninterrupted batch twin; liveness: any
# open gap names a destroyed export) — and fire exactly the SLOs its
# injected faults wound. Per-plan artifacts land in chaos-out/<plan>/:
# the flight-recorder event log, the machine-readable report, and the
# strict health verdict. The verdict itself is not a gate (a plan
# that injects faults is unhealthy by design, which is what the
# recorded verdict documents), but monitor --strict, slo --strict and
# the /healthz probe must exit alike on every plan: they are one
# verdict. Each run's final CLog root must also equal its line in
# chaos/final-roots.txt, so a change that moves a root fails here even
# when the run and its twin agree.
CHAOS_ROOTS := chaos/final-roots.txt
chaos: build
	rm -rf chaos-out
	mkdir -p chaos-out
	for run in 1 2 3 4 5 6 7 8 chaos/plans/*.json; do \
	  case $$run in \
	    *.json) name=$$(basename $$run .json); plan="--plan $$run" ;; \
	    *) name=seed-$$run; plan="--seed $$run" ;; \
	  esac; \
	  dune exec bin/zkflow.exe -- chaos $$plan --dir chaos-out/$$name --json \
	    > chaos-out/$$name-report.json || exit 1; \
	  dune exec bin/zkflow.exe -- monitor --dir chaos-out/$$name --strict \
	    > chaos-out/$$name-health.txt; m=$$?; \
	  dune exec bin/zkflow.exe -- slo --dir chaos-out/$$name --strict \
	    > /dev/null; s=$$?; \
	  dune exec bin/zkflow.exe -- watch --dir chaos-out/$$name \
	    --probe /healthz > /dev/null; w=$$?; \
	  if [ $$m -ne $$s ] || [ $$m -ne $$w ]; then \
	    echo "chaos: $$name: monitor --strict exit $$m, slo --strict exit $$s, /healthz probe exit $$w"; \
	    exit 1; \
	  fi; \
	  got=$$(grep -o '"final_root":"[0-9a-f]*"' chaos-out/$$name-report.json | cut -d'"' -f4); \
	  want=$$(awk -v n=$$name '$$1 == n { print $$2 }' $(CHAOS_ROOTS)); \
	  if [ -z "$$want" ] || [ "$$got" != "$$want" ]; then \
	    echo "chaos: $$name final_root $$got, pinned $${want:-nothing} in $(CHAOS_ROOTS)"; \
	    exit 1; \
	  fi; \
	done
	@echo "chaos: all plans ended verified on their pinned roots, one health verdict each (reports in chaos-out/)"
