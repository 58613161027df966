#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload hosp-typed-greedym --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seconds 30     # one table, every workload
#
# The binary and the Go build cache live under $CARGO_TARGET_DIR when it is
# set (relative paths resolve against the checkout root), else under
# .bench_build/ at the root, so a run writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
