package design

import (
	"context"
	"fmt"

	"tcr/internal/lp"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// Capacity solves equation (6): minimize the maximum channel load under
// uniform traffic. On the torus the optimum is known in closed form (the
// congestion bound gamma_max = MeanMinDist/4, attained by balanced minimal
// routing), so this LP mainly serves as an end-to-end check of the flow
// machinery and as the capacity normalizer for arbitrary experiments.
// Per-channel constraints are generated lazily, exactly like the
// average-case problem with the single uniform "sample"; like it, an
// exhausted budget degrades to the best iterate.
func Capacity(t topo.Topology, opts Options) (*Result, error) {
	p := NewFlowLP(t, false, opts)
	u := []*traffic.Matrix{traffic.Uniform(t.Nodes())}
	separate := sampleSeparator(opts.Workers, u, []lp.VarID{p.wVar}, opts.tol(), p.unfold, p.matrixCut, nil)
	l := &cutLoop{name: "capacity LP", opts: opts, solve: p.solveRound, separate: separate, sampled: true}
	return l.run(context.Background())
}

// NetworkCapacityLP returns the LP-computed network capacity (throughput
// under uniform traffic at the optimal routing), which must agree with the
// closed-form eval.NetworkCapacity on tori. An uncertified LP is an error
// wrapping ErrUncertified, never a guessed capacity.
func NetworkCapacityLP(t topo.Topology, opts Options) (float64, error) {
	res, err := Capacity(t, opts)
	if err != nil {
		return 0, err
	}
	if !res.Certified {
		return 0, fmt.Errorf("%w: %s", ErrUncertified, res.Reason)
	}
	return 1 / res.Objective, nil
}
