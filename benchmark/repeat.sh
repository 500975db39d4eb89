#!/usr/bin/env bash
# Repeatability of the benchmark on one commit.
#
#   benchmark/repeat.sh N [SEED...]      (default seeds: 1 2)
#
# For each seed: two interleaved sets of N untraced runs of every
# workload; per metric and workload, each set's median and quartiles, the
# gap between the two medians and the larger interquartile spread. Then
# one run on each of ten further seeds and the spread over them (the
# benchmark driver's own acceptance test). Fails if a gap or a spread
# exceeds the metric's bound. The report is printed and kept as
# benchmark/out/repeatability.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [SEED...]}"
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2)
report="$here/out/repeatability.md"
mkdir -p "$here/out"
: > "$report"
status=0
for seed in "${seeds[@]}"; do
    "$here/run.sh" repeat "$n" --seed "$seed" | tee -a "$report" || status=1
done
"$here/run.sh" spread 10 --seed 101 | tee -a "$report" || status=1
exit $status
