#!/bin/sh
# results.sh - regenerate every committed results/*.txt file and check that
# each one is reproduced byte for byte.
#
# Builds the tcr CLI into a temporary directory, reruns the command behind
# each results file there, and cmp's the output against the committed copy.
# Any difference (or a failing command) exits nonzero. Takes about 40 s on
# one core.
#
# Usage: scripts/results.sh
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/tcr" ./cmd/tcr
tcr=$tmp/tcr

"$tcr" eval -k 8 >"$tmp/eval_k8.txt"
"$tcr" approx -k 8 >"$tmp/approx_k8.txt"
"$tcr" figure4 -kmin 3 -kmax 4 >"$tmp/figure4_k3-4.txt"
"$tcr" figure5 -k 8 >"$tmp/figure5_k8.txt"
"$tcr" figure1 -k 4 -points 9 -with2turn >"$tmp/figure1_k4.txt"
"$tcr" figure6 -k 4 -samples 30 >"$tmp/figure6_k4.txt"
"$tcr" worstperm -k 8 -alg DOR | head -8 >"$tmp/worstperm_dor_k8.txt"
"$tcr" sim -k 8 -alg DOR -pattern tornado -rate 0.9 -measure 5000 >"$tmp/sim_dor_tornado_k8.txt"
"$tcr" sim -k 8 -alg IVAL -pattern tornado -rate 0.9 -measure 5000 >"$tmp/sim_ival_tornado_k8.txt"

status=0
for f in results/*.txt; do
	if [ ! -f "$tmp/$(basename "$f")" ]; then
		echo "results: no regenerate command for $f"
		status=1
	elif ! cmp "$f" "$tmp/$(basename "$f")"; then
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "results: all files regenerate byte for byte"
fi
exit "$status"
