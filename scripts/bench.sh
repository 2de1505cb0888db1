#!/bin/sh
# bench.sh - record the LP-engine benchmark suite into BENCH_lp.json and the
# flit-simulator benchmarks into BENCH_sim.json.
#
# Runs the internal/lp engine benchmarks (cold solve, warm AddCut/SetRHS
# episodes, factorize and FTRAN microbenches, each with an eta and a dense
# sub-benchmark, plus the topology-family design-LP points: a k=4 3-cube
# cold solve and torus3d:4 / mesh:8x8 model builds) and the end-to-end
# Figure 1 Pareto benchmark under both the default (eta) build and the
# -tags lpdense build, and serializes the
# ns/op, B/op, and allocs/op figures with cmd/benchjson. The simulator
# benchmarks (BenchmarkSimulator: 100 cycles of a k=8 IVAL network;
# BenchmarkFindSaturationK8: one serial k=8 saturation sweep) run at -cpu 1
# into BENCH_sim.json. The evaluator benchmarks (BenchmarkChannelLoads: one
# equation (2) evaluation for DOR and VAL under tornado at k=8 and a mesh
# permutation; BenchmarkAvgCaseK8: IVAL over 100 samples at k=8;
# BenchmarkColdEval: the daemon's cold eval of the six Table 1 algorithms
# with 8 samples each on a warm flow cache; BenchmarkSample: the eight
# Sinkhorn-normalized 64-node matrices one such eval draws) run at -cpu 1
# into BENCH_eval.json.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime  go test -benchtime value (default 10x; use e.g. 2s for
#              steadier numbers, 1x for a smoke run)
#
# The refreshed BENCH_*.json files double as the baselines for
# the soft regression gates in scripts/check.sh (cmd/benchjson -diff); re-run
# this script to re-baseline after an intentional performance change.
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-10x}"
OUT="BENCH_lp.json"
SIM_OUT="BENCH_sim.json"
EVAL_OUT="BENCH_eval.json"

rm -f "$OUT" "$SIM_OUT" "$EVAL_OUT"

echo "==> internal/lp engine benchmarks (benchtime=$BENCHTIME)"
go test ./internal/lp -run '^$' -bench . -benchtime "$BENCHTIME" -benchmem \
	| tee /dev/stderr | go run ./cmd/benchjson -o "$OUT"

echo "==> Figure 1 Pareto benchmark, eta engine (default build)"
go test . -run '^$' -bench BenchmarkFigure1ParetoCurve -benchtime "$BENCHTIME" -benchmem \
	| tee /dev/stderr | go run ./cmd/benchjson -o "$OUT" -label "/eta"

echo "==> Figure 1 Pareto benchmark, dense engine (-tags lpdense)"
go test -tags lpdense . -run '^$' -bench BenchmarkFigure1ParetoCurve -benchtime "$BENCHTIME" -benchmem \
	| tee /dev/stderr | go run ./cmd/benchjson -o "$OUT" -label "/dense"

echo "==> flit-simulator benchmarks (-cpu 1)"
go test . -run '^$' -bench 'BenchmarkSimulator$|BenchmarkFindSaturationK8$' -benchtime "$BENCHTIME" -benchmem -cpu 1 \
	| tee /dev/stderr | go run ./cmd/benchjson -o "$SIM_OUT"

echo "==> evaluator benchmarks (-cpu 1)"
go test ./internal/eval ./internal/serve ./internal/traffic -run '^$' -bench 'BenchmarkChannelLoads|BenchmarkAvgCaseK8$|BenchmarkColdEval$|BenchmarkSample$' -benchtime "$BENCHTIME" -benchmem -cpu 1 \
	| tee /dev/stderr | go run ./cmd/benchjson -o "$EVAL_OUT"

echo "==> wrote $OUT, $SIM_OUT and $EVAL_OUT"
