#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it from the
# repository root with the given arguments:
#
#   bash bench_e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr, so the benchmark's last stdout line is its
# JSON result.  The shared dune cache is disabled: the benchmark reads
# and writes only inside the repository.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display=quiet ./bench_e2e/main.exe 1>&2
exec ./_build/default/bench_e2e/main.exe "$@"
