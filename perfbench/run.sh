#!/bin/sh
# Build the benchmark and the vadasa binary from this checkout, then run
# one benchmark invocation. Run from the repository root:
#   sh perfbench/run.sh --workload batch-native --seed 1 --seconds 30 --trace 0
# Build output goes to stderr so the result stays the last stdout line.
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/main.exe ./bin/vadasa.exe 1>&2
exec ./_build/default/perfbench/main.exe --vadasa ./_build/default/bin/vadasa.exe "$@"
