#!/usr/bin/env bash
# Benchmark entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash dsmbench/run.sh --workload kernels --seed 1 --seconds 12 --trace 0
#
# Builds the runner from source (dune's shared cache off, so every build
# output stays in ./_build), then runs one workload in one process. The last
# line of standard output is the result object; build messages go to
# standard error. Outside a checkout of the repository the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
# a shell without the opam switch on its PATH still finds dune through opam
command -v dune >/dev/null 2>&1 || eval "$(opam env --readonly 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . ./dsmbench/main.exe 1>&2
exec ./_build/default/dsmbench/main.exe run "$@"
