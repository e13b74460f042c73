# `make check` is the pre-merge gate: tier-1 tests plus the quick
# bench, both under ZKFLOW_JOBS=2 so the Domain-pool code paths are
# exercised even where the default would be sequential, plus the
# static analyzer over the built-in guests and every example query.
.PHONY: all build test check lint audit audit-sarif bench bench-smoke \
        watch-smoke serve-smoke perfbench-smoke chaos matrix report

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
	ZKFLOW_JOBS=2 ZKFLOW_BENCH_QUICK=1 dune exec bench/main.exe -- sweep
	ZKFLOW_JOBS=2 ZKFLOW_BENCH_QUICK=1 dune exec bench/main.exe -- par

# Tiny end-to-end pipeline under telemetry: simulate, prove with a
# Chrome trace, the flight-recorder event log, the counter snapshot
# and the metric time-series, verify, then validate the artifacts
# (trace_event schema; event-log JSONL with monotone per-track
# timestamps and router-before-verifier causality; counters) and
# replay the log into a strict health report and a strict SLO
# verdict. Every scratch artifact lands in the gitignored smoke-out/
# so a local run never dirties the working tree. CI uploads the trace
# and the health report as artifacts. The simulation spans 3 epochs
# over 200 flows so the prover chains multiple rounds — the --require
# assertion then proves the incremental Merkle path actually reused
# subtrees on the warm rounds rather than silently falling back to
# full rebuilds.
SMOKE := smoke-out
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
	  --stats $(SMOKE)/stats-smoke.json \
	  --timeseries $(SMOKE)/state/timeseries.jsonl
	ZKFLOW_JOBS=2 dune exec bin/zkflow.exe -- verify --dir $(SMOKE)/state \
	  --events $(SMOKE)/state/events.jsonl
	dune exec bin/zkflow.exe -- trace-check $(SMOKE)/trace-smoke.json \
	  --min-names 5 --events $(SMOKE)/state/events.jsonl \
	  --counters $(SMOKE)/stats-smoke.json --require merkle.nodes_reused=1
	dune exec bin/zkflow.exe -- stats --dir $(SMOKE)/state --json
	dune exec bin/zkflow.exe -- monitor --dir $(SMOKE)/state --strict
	dune exec bin/zkflow.exe -- slo --dir $(SMOKE)/state --strict
	dune exec bin/zkflow.exe -- monitor --dir $(SMOKE)/state --json \
	  > $(SMOKE)/health-smoke.json
	$(MAKE) report

# The live telemetry plane end to end: record a small proved run
# (events + time-series), validate every endpoint schema offline via
# --probe, then serve the artifacts over the embedded HTTP server and
# curl all three endpoints. CI uploads the time-series JSONL.
watch-smoke: build
	rm -rf $(SMOKE)/watch
	mkdir -p $(SMOKE)/watch
	dune exec bin/zkflow.exe -- simulate --dir $(SMOKE)/watch/state \
	  --routers 2 --flows 60 --rate 20 --duration 6000 \
	  --events $(SMOKE)/watch/state/events.jsonl
	ZKFLOW_JOBS=2 dune exec bin/zkflow.exe -- prove --dir $(SMOKE)/watch/state \
	  --queries 8 --events $(SMOKE)/watch/state/events.jsonl \
	  --timeseries $(SMOKE)/watch/state/timeseries.jsonl
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
# 0, and the
# flushed event log must satisfy the strict SLO verdict. This is the
# daemon-lifecycle contract CI enforces: graceful shutdown is not
# best-effort.
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
	@echo "serve-smoke: daemon served, drained cleanly, SLOs green"

# The end-to-end benchmark (BENCHMARK.json, perfbench/) checked at
# smoke size, about 30 s: every workload prints every declared metric
# with no failed op, a tampered window counts as exactly one failed
# op, and the harness fails cleanly in a directory without the
# program's sources. See perfbench/README.md for full-size runs.
perfbench-smoke: build
	python3 perfbench/selftest.py

# The proof-backend benchmark matrix (DESIGN.md §14): one aggregation
# round per cell across backend × queries × scale, written to
# BENCH_matrix.json. Quick mode is the CI grid; `make matrix
# QUICK=` runs the full one.
QUICK ?= 1
matrix: build
	ZKFLOW_JOBS=2 ZKFLOW_BENCH_QUICK=$(QUICK) dune exec bench/main.exe -- matrix

# Regenerate the matrix and render REPORT.md (+ a machine-readable
# twin) from it — the cost/soundness frontier report CI uploads.
report: matrix
	dune exec bin/zkflow.exe -- report BENCH_matrix.json > REPORT.md
	dune exec bin/zkflow.exe -- report BENCH_matrix.json --json > report.json
	@echo "report: wrote REPORT.md and report.json"

# Deterministic fault-injection matrix: 8 seeded random plans plus the
# curated ones under chaos/plans/, every one aimed at the resident
# daemon (the pipeline `zkflow serve` runs). Every run must end
# verified — either complete or explicitly degraded (safety: the final
# root is bit-identical to an uninterrupted batch twin; liveness: any
# open gap names a destroyed export) — and fire exactly the SLOs its
# injected faults wound. Per-plan artifacts land in chaos-out/<plan>/:
# the flight-recorder event log, the machine-readable report, and the
# strict health verdict (advisory — plans that inject board rejects or
# unhealable drops degrade health by design, which is what the
# recorded verdict documents).
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
	    > chaos-out/$$name-health.txt || true; \
	done
	@echo "chaos: all plans ended verified (reports in chaos-out/)"

bench:
	dune exec bench/main.exe
