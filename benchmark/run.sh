#!/usr/bin/env bash
# Build the `dut` CLI and the benchmark from source, then run one
# benchmark invocation with the given arguments, e.g.
#   bash benchmark/run.sh --workload query-warm --seed 7 --seconds 10 --trace 0
# Build output goes to stderr, so the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/dut_cli.exe ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
