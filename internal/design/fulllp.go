package design

import (
	"fmt"

	"tcr/internal/lp"
	"tcr/internal/topo"
)

// FullWorstCaseLP solves the pre-dualization worst-case formulation (16)
// with every permutation constraint written out explicitly:
//
//	min w  s.t. flow constraints and  gamma_c(R, pi)/b_c <= w
//	            for all channels c and all N! permutations pi.
//
// The paper notes this LP is impractical because of the exponential
// constraint count and derives the polynomial dual (8); here it serves as a
// ground-truth cross-check for the constraint-generation solver on tiny
// networks. It refuses networks with more than 6 nodes (720 permutations x
// C channels is the sensible ceiling).
func FullWorstCaseLP(t topo.Topology, opts Options) (*Result, error) {
	if t.Nodes() > 6 {
		return nil, fmt.Errorf("design: full worst-case LP limited to N <= 6, got %d", t.Nodes())
	}
	opts.Fold = FoldTranslation
	p := newBareFlowLP(t, opts)

	m := lp.NewModel()
	p.addFlowVars(m, false)
	p.wVar = m.AddVar(1, "w")
	p.addConservation(m, false)

	// Every permutation, every channel.
	perm := make([]int, p.n)
	for i := range perm {
		perm[i] = i
	}
	var emit func(k int)
	emit = func(k int) {
		if k == p.n {
			for c := 0; c < p.nc; c++ {
				m.AddRow(p.PermCutTerms(topo.Channel(c), perm, p.wVar), lp.LE, 0, "")
			}
			return
		}
		for i := k; i < p.n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			emit(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	emit(0)

	sol, err := lp.NewSolver(m).Solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("design: full LP status %v", sol.Status)
	}
	flow := p.unfold(sol.X)
	gw, _ := flow.WorstCase()
	return &Result{
		Flow:       flow,
		Objective:  sol.Objective,
		GammaWC:    gw,
		HAvg:       flow.HAvg(),
		HNorm:      flow.HNorm(),
		Rounds:     1,
		Iterations: sol.Iterations,
	}, nil
}
