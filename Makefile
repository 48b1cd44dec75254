# Convenience targets around dune; `make check` is the tier-1 verify.

# JOBS: pool size for parallel sweeps (0 = one less than the
# recommended domain count). SMOKE_SCALE: per-point workload fraction
# for bench-smoke.
JOBS ?= 0
SMOKE_SCALE ?= 0.02

.PHONY: build test lint lint-audit complexity-report complexity-check check bench bench-micro bench-check bench-smoke bench-repo-test bench-wallclock figures-shard clean

build:
	dune build

test:
	dune runtest

# Determinism / domain-safety / cost-accounting / complexity static
# analysis (see DESIGN.md §7 "Statically-enforced invariants").
# Non-zero exit on any finding; suppress deliberate exceptions with
# [@lint.ignore "reason"] at the site. Runs parse + rule passes across
# cores-1 domains (--jobs 0); output is byte-identical to --jobs 1.
# `time` prints the lint wall time for the CI log.
lint: build
	@start=$$(date +%s%N); \
	dune exec bin/sio_lint.exe -- --jobs $(JOBS) lib bin bench examples; \
	status=$$?; end=$$(date +%s%N); \
	echo "lint wall time: $$(( (end - start) / 1000000 )) ms (jobs=$(JOBS))"; \
	exit $$status

# Suppression audit: list every [@lint.ignore] site and fail if any
# of them is stale (its removal would produce zero findings — the
# hazard it excused is gone, so the annotation must go too). One
# invocation: --audit-ignores runs the stale-ignore check itself.
lint-audit: build
	dune exec bin/sio_lint.exe -- --audit-ignores lib bin bench examples

# Refresh the committed whole-tree complexity certificate: per-symbol
# host (structural) and charged (simulated-CPU) cost summaries for
# every definition the interpreter can see. CI diffs a fresh run
# against this file, so any change to an inferred bound is visible in
# review even when it stays inside its annotation.
complexity-report: build
	dune exec bin/sio_lint.exe -- --complexity-report lib bin bench examples \
	  > test/lint_fixtures/complexity_report.txt

# Fail if the committed complexity certificate is stale relative to
# the tree (regenerate with `make complexity-report`).
complexity-check: build
	dune exec bin/sio_lint.exe -- --complexity-report lib bin bench examples \
	  > /tmp/complexity_report.txt
	diff -u test/lint_fixtures/complexity_report.txt /tmp/complexity_report.txt

# Tier-1 verify plus lint (including the suppression audit), a tiny
# wall-clock smoke and the benchmark's own tests: build + full test
# suite + static analysis + sequential-vs-parallel byte-identity. Lint
# runs exactly twice: once for findings, once for the suppression
# audit.
check:
	dune build && dune runtest
	$(MAKE) lint
	$(MAKE) lint-audit
	$(MAKE) complexity-check
	$(MAKE) bench-check
	$(MAKE) bench-smoke
	$(MAKE) bench-repo-test

# The full benchmark harness (micro + opcost + ablations + figures).
bench: build
	dune exec bench/main.exe -- --jobs $(JOBS)

# Refresh the committed microbenchmark numbers (BENCH_micro.json at
# the repo root), without the full bench/main.exe figure sweep.
bench-micro: build
	dune exec bench/bench_micro_main.exe

# Guard against host-side perf regressions on the scan paths: run the
# microbenchmarks fresh and fail if any result exceeds 3x the
# committed BENCH_micro.json. The wide tolerance absorbs machine and
# load variance; what it catches is a complexity class coming back
# (e.g. an O(n) idle walk reappearing in an O(active) scan).
bench-check: build
	dune exec bench/bench_micro_main.exe -- --check BENCH_micro.json

# The benchmark's own tests (perfbench/test_perfbench.py): the
# BENCHMARK.json contract, the layer map, the OCaml unit checks, and a
# tiny traced and untraced run of every workload (a few seconds).
bench-repo-test: build
	python3 -m unittest discover -s perfbench -p 'test_*.py'

# Sequential-vs-parallel wall-clock for the reference figure set;
# refreshes BENCH_wallclock.json at the repo root.
bench-wallclock: build
	dune exec bench/bench_wallclock.exe -- --jobs $(JOBS)

# Tiny-scale wall-clock bench: exits non-zero if the Domain_pool run
# diverges from the sequential run by even one byte of CSV.
bench-smoke: build
	dune exec bench/bench_wallclock.exe -- --scale $(SMOKE_SCALE) --jobs $(JOBS) \
	  --out /tmp/BENCH_wallclock_smoke.json

# Refresh the committed shard-scaling figure CSVs (figures/). CI
# regenerates the figure at the same scale and diffs against these, so
# run this after any change that moves the cluster numbers. The JSON
# sidecars (shard-scaling.json, shard-ablation.json) carry host RSS and
# are deliberately not committed.
figures-shard: build
	dune exec bin/sio_figures.exe -- shard-scaling -q --csv figures
	rm -f figures/*.json

clean:
	dune clean
