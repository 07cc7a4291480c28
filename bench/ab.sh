#!/usr/bin/env bash
# Paired A/B of every workload between a git ref (the base) and the working
# tree (the change), run from the root of the repository:
#
#   bash bench/ab.sh <git-ref> [pairs=10] [seconds=10]
#
# The ref's tree is exported under .bench_build/ab/base-src and given the
# working tree's bench/, so both sides run identical benchmark code. Pair i
# runs both sides at seed i, alternating which side goes first, and writes
# .bench_build/ab/{base,change}/run-<i>.json. The last step prints
# `cmvrpbench compare` over those files.
set -euo pipefail

ref=${1:?usage: bash bench/ab.sh <git-ref> [pairs] [seconds]}
pairs=${2:-10}
seconds=${3:-10}
root=$(pwd)
ab="$root/.bench_build/ab"

rm -rf "$ab"
mkdir -p "$ab/base-src" "$ab/base" "$ab/change"
git -C "$root" archive "$ref" | tar -x -C "$ab/base-src"
rm -rf "$ab/base-src/bench"
tar -C "$root" --exclude=.bench_build -cf - bench | tar -x -C "$ab/base-src"

# run <checkout> <results dir> <seed>
run() {
	(cd "$1" && bash bench/run.sh -workload all -seed "$3" -seconds "$seconds" \
		-out "$2/run-$(printf %02d "$3").json" >/dev/null)
}

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run "$ab/base-src" "$ab/base" "$i"
		run "$root" "$ab/change" "$i"
	else
		run "$root" "$ab/change" "$i"
		run "$ab/base-src" "$ab/base" "$i"
	fi
	echo "pair $i of $pairs done" >&2
done
"$root/.bench_build/cmvrpbench" compare "$ab"/base/*.json "$ab"/change/*.json
