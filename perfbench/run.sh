#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output and the compilers'
# temporary files go to .bench_build, and dune's shared cache is
# disabled, so nothing is written outside the checkout.  The build log
# goes to stderr, so the last line of stdout is the benchmark's result.
set -euo pipefail
export DUNE_CACHE=disabled
mkdir -p .bench_build/tmp
export TMPDIR="$PWD/.bench_build/tmp"
dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/main.exe 1>&2
exec ./.bench_build/default/perfbench/main.exe "$@"
