#!/bin/sh
# Builds vmbench from this checkout, then runs it with the given
# arguments, for example:
#   bash bench/vmbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
# Run it from the root of the checkout; the build goes to _build/ there.
set -e
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# dune's shared cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . --display quiet \
  bench/vmbench/vmbench.exe >&2
exec ./_build/default/bench/vmbench/vmbench.exe "$@"
