package design

import (
	"context"
	"fmt"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// AvgCaseLP is the average-case design problem of Section 3.3/5.4: minimize
// (1/|X|) sum_i t_i with t_i >= gamma_max(R, Lambda_i) over a fixed sample X
// of doubly-stochastic matrices, optionally at a fixed locality. Per-sample
// max constraints are generated lazily: only the channels that actually
// achieve a sample's maximum ever enter the LP.
type AvgCaseLP struct {
	flp     *FlowLP
	samples []*traffic.Matrix
	tVars   []lp.VarID
}

// NewAvgCaseLP builds the base problem over the given sample. The model is
// the flow LP's layout plus one t variable per sample carrying the
// (1/|X|) objective weight; the w slot is kept as a zero-cost placeholder so
// variable indexing matches FlowLP.
func NewAvgCaseLP(t topo.Topology, samples []*traffic.Matrix, withLocality bool, opts Options) *AvgCaseLP {
	p := newBareFlowLP(t, opts)

	m := lp.NewModel()
	// The sampled objective is not group-invariant, and its separator scans
	// every channel, so tied columns can only cost it throughput. The tori
	// go without them; the meshes keep the symmetry they always had.
	p.addFlowVars(m, !t.VertexTransitive())
	p.wVar = m.AddVar(0, "w") // unused placeholder to keep varID layout
	tVars := make([]lp.VarID, len(samples))
	inv := 1 / float64(len(samples))
	for i := range samples {
		tVars[i] = m.AddVar(inv, fmt.Sprintf("t[%d]", i))
	}
	p.addConservation(m, false)
	if withLocality {
		p.addLocalityRow(m)
	}
	p.model = m
	p.solver = lp.NewSolver(m)
	return &AvgCaseLP{flp: p, samples: samples, tVars: tVars}
}

// SetLocality re-targets the locality row (normalized units).
func (a *AvgCaseLP) SetLocality(hNorm float64) { a.flp.SetLocality(hNorm) }

// Solve runs the cutting-plane loop: each round, every sample whose true
// maximum channel load exceeds its t variable contributes a cut for its
// most-loaded channel.
func (a *AvgCaseLP) Solve() (*Result, error) {
	return a.SolveCtx(context.Background())
}

// SolveCtx is Solve under a cancellation context. The per-sample separation
// (each sample's maximum channel load and its argmax, eight samples per pass
// over one load plan) runs on Options.Workers goroutines into per-sample
// slots; cuts are then added in sample order, so the generated LP is
// identical for every worker count.
//
// Per-round solves retry through the cut log like the worst-case loops, and
// exhausted budgets degrade to the best sampled iterate. Options.Checkpoint,
// WarmFrom and FinalSnapshot are ignored: matrix cuts carry dense patterns
// that do not serialize.
func (a *AvgCaseLP) SolveCtx(ctx context.Context) (*Result, error) {
	p := a.flp
	separate := sampleSeparator(p.opts.Workers, a.samples, a.tVars, p.opts.tol(), p.unfold, p.matrixCut, oracleFault)
	l := &cutLoop{name: "avg-case cutting planes", opts: p.opts, solve: p.solveRound, separate: separate, sampled: true}
	return l.run(ctx)
}

// sampleSeparator is the per-sample separation shared by the average-case
// flow and path LPs and the capacity LP (one uniform sample): each sample's
// most loaded channel, found in batches on workers goroutines through one
// load plan of the round's flow (LoadPlan.MaxLoads), gets a cut against the
// sample's bound variable when it exceeds it; cuts are added in sample
// order. The score is the mean of the maxima, the exact sampled objective
// value of the iterate. flowOf expands an LP solution, cut adds one load
// cut, and fault, when non-nil, is the fault-injection hook called once per
// sample.
func sampleSeparator(workers int, samples []*traffic.Matrix, bounds []lp.VarID, tol float64,
	flowOf func([]float64) *eval.Flow, cut func(topo.Channel, *traffic.Matrix, lp.VarID), fault func() error) separateFunc {
	return func(ctx context.Context, sol *lp.Solution) (*eval.Flow, float64, bool, error) {
		flow := flowOf(sol.X)
		if fault != nil {
			for range samples {
				if err := fault(); err != nil {
					return nil, 0, false, err
				}
			}
		}
		worsts, worstCs, err := flow.Plan().MaxLoads(ctx, samples, workers)
		if err != nil {
			return nil, 0, false, err
		}
		mean := 0.0
		for _, w := range worsts {
			mean += w
		}
		violated := false
		for i, lam := range samples {
			if worsts[i] > sol.X[bounds[i]]+tol {
				cut(topo.Channel(worstCs[i]), lam, bounds[i])
				violated = true
			}
		}
		return flow, mean / float64(len(samples)), violated, nil
	}
}

// AvgCaseOptimal minimizes the sampled mean maximum channel load with no
// locality constraint: the maximum average-case throughput point of
// Figure 6 (its reciprocal, normalized by capacity, is the paper's ~62.8%).
func AvgCaseOptimal(t topo.Topology, samples []*traffic.Matrix, opts Options) (*Result, error) {
	return AvgCaseOptimalCtx(context.Background(), t, samples, opts)
}

// AvgCaseOptimalCtx is AvgCaseOptimal under a cancellation context.
func AvgCaseOptimalCtx(ctx context.Context, t topo.Topology, samples []*traffic.Matrix, opts Options) (*Result, error) {
	return NewAvgCaseLP(t, samples, false, opts).SolveCtx(ctx)
}

// AvgCaseAtLocality solves equation (15): best average-case throughput at a
// fixed normalized locality.
func AvgCaseAtLocality(t topo.Topology, samples []*traffic.Matrix, hNorm float64, opts Options) (*Result, error) {
	return AvgCaseAtLocalityCtx(context.Background(), t, samples, hNorm, opts)
}

// AvgCaseAtLocalityCtx is AvgCaseAtLocality under a cancellation context.
func AvgCaseAtLocalityCtx(ctx context.Context, t topo.Topology, samples []*traffic.Matrix, hNorm float64, opts Options) (*Result, error) {
	a := NewAvgCaseLP(t, samples, true, opts)
	a.SetLocality(hNorm)
	return a.SolveCtx(ctx)
}

// AvgCaseParetoCurve sweeps locality for Figure 6's optimal tradeoff curve.
// See AvgCaseParetoCurveCtx for the sweep strategy.
func AvgCaseParetoCurve(t topo.Topology, samples []*traffic.Matrix, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	return AvgCaseParetoCurveCtx(context.Background(), t, samples, hNorms, opts)
}

// AvgCaseParetoCurveCtx sweeps locality under a cancellation context. As
// with WorstCaseParetoCurveCtx, one LP is shared across the points (sample
// cuts stay valid across L) and Options.Workers parallelizes only the
// per-sample oracles. The point's Gamma is the mean max load; its
// reciprocal approximates the average throughput (equation 9).
func AvgCaseParetoCurveCtx(ctx context.Context, t topo.Topology, samples []*traffic.Matrix, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	a := NewAvgCaseLP(t, samples, true, opts)
	return sweep(t, hNorms, a.SetLocality,
		func() (*Result, error) { return a.SolveCtx(ctx) },
		func(res *Result) float64 { return res.Objective })
}
