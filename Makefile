PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-dynamic lint-changed model-check concurrency-verify \
	check bench bench-compare accuracy-shapes

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.lint src/

lint-dynamic:
	$(PYTHON) -m repro.lint --dynamic src/

# Only the .py files touched since the merge-base with main.
lint-changed:
	$(PYTHON) -m repro.lint --changed-only

# Exhaustive bounded model check of the shm transport (DYN004) plus the
# static pipeline-schedule verifier (DYN005).
model-check:
	$(PYTHON) -m repro.lint --model-check

# Full concurrency verification: model-check the protocol, then record a
# real mp 1f1b 2x2 step and replay its event log through the DYN003
# happens-before race detector.
concurrency-verify: model-check
	rm -rf conc-logs && mkdir -p conc-logs
	$(PYTHON) -m repro.obs mp-trace --out conc-logs/mp-1f1b.trace.json \
		--scheme A2 --tp 2 --pp 2 --schedule 1f1b --microbatches 4 \
		--conc-log conc-logs
	$(PYTHON) -m repro.lint --race-log conc-logs

# The merge gate: tier-1 tests, the full static+dynamic lint, and the
# transport/schedule model checkers.
check: test lint-dynamic model-check

# Full pinned perf suite: BENCH_<sha>.json + merged Chrome trace in bench-out/.
bench:
	$(PYTHON) -m repro.bench run --out bench-out

# CI-style smoke: quick run, then gate against the committed baseline.
bench-compare:
	$(PYTHON) -m repro.bench run --quick --out bench-out --no-trace
	$(PYTHON) -m repro.bench compare --dir bench-out --baseline benchmarks/baseline.json

# The paper-accuracy shape claims, timed once: re-run them on the parent and
# on the change whenever a PR changes numerics on purpose.  About 8 minutes
# on a 2-core host.  Not part of `check`: three of them are red on main
# (EXPERIMENTS.md, "Known deviations").
ACCURACY_SHAPES := benchmarks/test_table5_glue_accuracy.py \
	benchmarks/test_table8_pretrain_accuracy.py \
	benchmarks/test_fig4a_num_layers.py \
	benchmarks/test_fig4b_location.py \
	benchmarks/test_tables15_16_accuracy_hparams.py

accuracy-shapes:
	REPRO_BENCH_ROUNDS=1 REPRO_BENCH_WARMUP=0 $(PYTHON) -m pytest -q -s $(ACCURACY_SHAPES)
