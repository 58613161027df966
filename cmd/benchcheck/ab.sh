#!/bin/sh
# Same-runner A/B benchmark gate, run by `make bench-check`.
#
# Builds the gated layer-benchmark test binaries twice — from the base
# commit and from the working tree (HEAD in CI) — then runs the two sides
# interleaved on this machine: five rounds, and in each round every package
# runs its base binary and its head binary back to back, alternating which
# side goes first. Pairing the sides per package keeps both samples of an
# entry seconds apart, so drift in a shared machine's load hits both alike.
# Both raw outputs go to benchcheck and stay in .bench_ab/{base,head}.txt.
# The base is the merge-base with origin/main (main when there is no
# origin), or HEAD~1 when HEAD is on main.
set -eu

rounds=5
benchtime=200ms
pkgs="internal/vgraph internal/strsim internal/fd internal/targettree internal/repair internal/incr"
bench='^(BenchmarkGraphBuildWorkers|BenchmarkDistance|BenchmarkDistCacheHit|BenchmarkNearest|BenchmarkGreedyGrowth|BenchmarkJointGrowth|BenchmarkExactCombos|BenchmarkPlanCosts|BenchmarkIngest)$'

root=$(git rev-parse --show-toplevel)
cd "$root"
ref=origin/main
git rev-parse -q --verify "$ref^{commit}" >/dev/null || ref=main
if [ "$(git rev-parse --abbrev-ref HEAD)" = main ] || git merge-base --is-ancestor HEAD "$ref"; then
	base=$(git rev-parse HEAD~1)
else
	base=$(git merge-base "$ref" HEAD)
fi

work=$root/.bench_ab
rm -rf "$work"
mkdir -p "$work/src" "$work/bin/base" "$work/bin/head"
git archive "$base" | tar -x -C "$work/src"
echo "bench-check: base $(git rev-parse --short "$base") vs head $(git rev-parse --short HEAD) (working tree)"
start=$(date +%s)

# build SIDE TREE: compile one test binary per gated package. A package the
# base tree lacks is skipped; any other build failure stops the gate.
build() {
	for p in $pkgs; do
		[ -d "$2/$p" ] || continue
		go -C "$2" test -c -o "$work/bin/$1/$(echo "$p" | tr / _).test" "./$p"
	done
}
build base "$work/src"
build head "$root"

# run SIDE TREE PKG: one pass of PKG's gated families, appended to SIDE.txt.
# The binary runs from its package directory, as `go test` would run it.
run() {
	bin=$work/bin/$1/$(echo "$3" | tr / _).test
	[ -x "$bin" ] || return 0
	(cd "$2/$3" && "$bin" -test.run '^$' -test.bench "$bench" \
		-test.benchtime "$benchtime" -test.benchmem) >>"$work/$1.txt"
}
i=1
while [ "$i" -le "$rounds" ]; do
	echo "bench-check: round $i/$rounds"
	for p in $pkgs; do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$work/src" "$p"
			run head "$root" "$p"
		else
			run head "$root" "$p"
			run base "$work/src" "$p"
		fi
	done
	i=$((i + 1))
done
echo "bench-check: measured in $(($(date +%s) - start))s"
go run ./cmd/benchcheck -threshold 1.25 "$work/base.txt" "$work/head.txt"
