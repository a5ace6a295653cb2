#!/bin/sh
# Runs every workload untraced, then every workload traced, and writes one
# result file per run (plus the traced runs' span logs) into a directory
# that `fitsbench -compare` reads. Run from the repository root:
#
#   bash bench/run.sh <out-dir> [seed...]        # seeds default to 1
#
# Compare two commits by running this on each with the same seeds (at
# least ten for a "better" verdict), then:
#
#   .bench_build/fitsbench -compare <base-dir> <head-dir>
set -eu
dir=${1:?usage: bench/run.sh <out-dir> [seed...]}
shift
seeds=${*:-1}
workloads="cold-image xscan-corpus diff-chain service-mix"
mkdir -p "$dir"
for seed in $seeds; do
	for w in $workloads; do
		bash bench/fitsbench.sh --workload "$w" --seed "$seed" --trace 0 \
			--out "$dir/$w-$seed.json" >/dev/null
	done
done
for seed in $seeds; do
	for w in $workloads; do
		bash bench/fitsbench.sh --workload "$w" --seed "$seed" --trace 1 \
			--out "$dir/$w-$seed-trace.json" --spans "$dir/$w-$seed-spans.jsonl" >/dev/null
	done
done
