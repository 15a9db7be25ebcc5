#!/usr/bin/env bash
# Build the placer daemon, the benchmark and its host-speed reference
# from source, then run the benchmark.
# Run from the repository root:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe ./perfbench/refloop.exe ./bin/placed.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
