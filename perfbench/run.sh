#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it:
#   bash perfbench/run.sh --workload train|stream|serve --seed N --seconds S --trace 0|1
# Run from the root of a checkout. The dune cache is off so that the build
# writes nothing outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
