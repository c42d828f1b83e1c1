#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#   bash incabench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
#   bash incabench/run.sh --smoke     # every workload at tiny sizes
# Run from the project root.  Exit 2 (without a result) when the tree
# around the benchmark is missing.
set -euo pipefail
for need in lib examples incabench/dune-project incabench/src/dune; do
  if [ ! -e "$need" ]; then
    echo "incabench: $need not found; run from the root of a full checkout" >&2
    exit 2
  fi
done
# The benchmark's own dune project, staged with the project's lib/ so
# that it can link lib/'s private libraries.
ws=.incabench/build
mkdir -p "$ws"
ln -sfn ../../incabench/dune-project "$ws/dune-project"
ln -sfn ../../lib "$ws/lib"
ln -sfn ../../incabench/src "$ws/src"
# No shared dune cache outside the checkout.
export DUNE_CACHE=disabled
dune build --root "$ws" ./src/main.exe 1>&2
exec "$ws/_build/default/src/main.exe" "$@"
