package design

import (
	"context"
	"fmt"
	"math"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// PathFamily enumerates a closed-form path set per pair; the design LPs
// optimize the probability weighting over it (the 2TURN idea of Section 5.2:
// abandon a closed-form *algorithm* but keep closed-form *paths*).
type PathFamily func(t *topo.Torus, s, d topo.Node) []paths.Path

// PathLP is a path-based routing design problem over a family of candidate
// paths per commodity, with constraint-generated worst-case or average-case
// load bounds. It folds like the flow LP: one commodity per pair class of
// the folding group, pair loads read through each pair's automorphism, and
// the paths that a commodity's stabilizer maps onto each other sharing a
// column.
type PathLP struct {
	T *topo.Torus
	// flp holds the folding state (group, commodities, pair maps,
	// stabilizers), the solver, w, the locality row and potential blocks.
	flp *FlowLP

	// cols[ci][i] is the column of commodity ci's path i, whose channel
	// sequence is chans[ci][i]; onChan[ci][c] lists, per path of ci
	// crossing channel c, that path's column.
	cols   [][]lp.VarID
	chans  [][][]topo.Channel
	onChan [][][]lp.VarID

	tVars   []lp.VarID
	samples []*traffic.Matrix
}

// NewPathLP enumerates the family per commodity and builds the base LP
// (distribution rows per commodity, objective min w or min mean(t) when
// samples are given). Worst-case LPs fold by the full group (tests may set
// Options.fold to the translation folding as a reference); sampled LPs by
// translation, since their objective is not group-invariant (see
// NewAvgCaseLP). It fails if the family produces no path for some commodity,
// or if a commodity's stabilizer maps one of its paths outside the family:
// the caller supplies the family, so either is a data condition, not a bug.
func NewPathLP(t *topo.Torus, family PathFamily, samples []*traffic.Matrix, withLocality bool, opts Options) (*PathLP, error) {
	if samples != nil {
		opts.fold = foldTranslation
	}
	f := newBareFlowLP(t, opts)
	f.findStabilizers()
	p := &PathLP{T: t, flp: f, samples: samples}
	m := lp.NewModel()
	for ci, cm := range f.comms {
		ps := family(t, cm.src, cm.dst)
		if len(ps) == 0 {
			return nil, fmt.Errorf("design: empty path family for pair (%d, %d)", cm.src, cm.dst)
		}
		chans := make([][]topo.Channel, len(ps))
		index := make(map[string]int, len(ps))
		for i, path := range ps {
			chans[i] = path.Channels(t)
			index[fmt.Sprint(chans[i])] = i
		}
		cols := make([]lp.VarID, len(ps))
		dist := make([]lp.Term, len(ps)) // the unit-distribution row
		onChan := make([][]lp.VarID, t.C)
		img := make([]topo.Channel, 0, t.C)
		for i, chs := range chans {
			rep := i
			for _, h := range f.stabs[ci] {
				img = img[:0]
				for _, c := range chs {
					img = append(img, f.grp.ApplyChan(h, c))
				}
				j, ok := index[fmt.Sprint(img)]
				if !ok {
					return nil, fmt.Errorf("design: path family not closed under the symmetry of pair (%d, %d)", cm.src, cm.dst)
				}
				rep = min(rep, j)
			}
			if rep < i {
				cols[i] = cols[rep]
			} else {
				cols[i] = m.AddVar(0, "")
			}
			dist[i] = lp.Term{Var: cols[i], Coef: 1} // merged: a tied column counts its paths
			for _, c := range chs {
				onChan[c] = append(onChan[c], cols[i])
			}
		}
		m.AddRow(dist, lp.EQ, 1, "")
		p.cols = append(p.cols, cols)
		p.chans = append(p.chans, chans)
		p.onChan = append(p.onChan, onChan)
	}
	f.wVar = m.AddVar(0, "w")
	if samples == nil {
		m.SetObj(f.wVar, 1)
		f.blocks = addPotentialBlocks(m, t, f.seps, f.wVar)
	} else {
		inv := 1 / float64(len(samples))
		p.tVars = make([]lp.VarID, len(samples))
		for i := range samples {
			p.tVars[i] = m.AddVar(inv, fmt.Sprintf("t[%d]", i))
		}
	}
	if withLocality {
		var terms []lp.Term
		for ci, cols := range p.cols {
			for i, v := range cols {
				if n := len(p.chans[ci][i]); n != 0 {
					terms = append(terms, lp.Term{Var: v, Coef: f.comms[ci].weight * float64(n)})
				}
			}
		}
		f.hRow = m.AddRow(terms, lp.LE, float64(t.N)*t.MeanMinDist(), "H")
	}
	f.solver = lp.NewSolver(m)
	// Path LPs have enormous, harmless optimal faces (any optimal vertex
	// is an equally valid probability weighting); the anti-degeneracy cost
	// jitter would make the simplex chase a noise-optimal vertex across
	// that face, so switch it off here.
	f.solver.SetJitter(false)
	return p, nil
}

// SetLocality re-targets the locality row (normalized units).
func (p *PathLP) SetLocality(hNorm float64) { p.flp.SetLocality(hNorm) }

// setLengthObjective makes the objective the total (orbit-weighted) path
// length, the lexicographic designs' second stage; bounds holds the first
// stage's objective variables, whose costs drop to zero. A tied column's
// coefficient sums its paths' lengths.
func (p *PathLP) setLengthObjective(bounds ...lp.VarID) {
	obj := make([]float64, p.flp.wVar) // the path columns come first
	for ci, cols := range p.cols {
		for i, v := range cols {
			obj[v] += p.flp.comms[ci].weight * float64(len(p.chans[ci][i]))
		}
	}
	for v, w := range obj {
		p.flp.solver.SetObjCoef(lp.VarID(v), w)
	}
	for _, v := range bounds {
		p.flp.solver.SetObjCoef(v, 0)
	}
}

// appendPairLoad appends coef times the load pair (s, d) places on channel
// c, in path variables: the paths of the pair's commodity that cross the
// image of c under the pair's automorphism.
func (p *PathLP) appendPairLoad(terms []lp.Term, c topo.Channel, s, d int, coef float64) []lp.Term {
	f := p.flp
	idx := s*f.n + d
	for _, v := range p.onChan[f.pairComm[idx]][f.grp.ApplyChan(f.pairAut[idx], c)] {
		terms = append(terms, lp.Term{Var: v, Coef: coef})
	}
	return terms
}

// matrixCut adds gamma_c(R, Lambda) <= bound for a dense pattern.
func (p *PathLP) matrixCut(c topo.Channel, lam *traffic.Matrix, bound lp.VarID) {
	var terms []lp.Term
	for s := 0; s < p.T.N; s++ {
		for d := 0; d < p.T.N; d++ {
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if s != d && lam.L[s][d] != 0 {
				terms = p.appendPairLoad(terms, c, s, d, lam.L[s][d])
			}
		}
	}
	terms = append(terms, lp.Term{Var: bound, Coef: -1})
	p.flp.solver.AddCut(terms, lp.LE, 0)
}

// table converts an LP solution into a routing table (dropping
// zero-probability paths and renormalizing away LP tolerance dust): the
// paths of relative destination rel are its commodity's, mapped back
// through the inverse of the pair's automorphism.
func (p *PathLP) table(x []float64, label string) *routing.Table {
	f := p.flp
	dist := make(map[topo.Node][]paths.Weighted, f.n-1)
	for rel := 1; rel < f.n; rel++ {
		ci, inv := f.pairComm[rel], f.grp.Inverse(f.pairAut[rel]) // pair (0, rel)
		var ws []paths.Weighted
		var sum float64
		for i, v := range p.cols[ci] {
			if pr := x[v]; pr > pathProbFloor {
				dirs := make([]topo.Dir, len(p.chans[ci][i]))
				for j, c := range p.chans[ci][i] {
					dirs[j] = p.T.ChanDir(f.grp.ApplyChan(inv, c))
				}
				ws = append(ws, paths.Weighted{Path: paths.Path{Src: 0, Dirs: dirs}, Prob: pr})
				sum += pr
			}
		}
		for i := range ws {
			ws[i].Prob /= sum
		}
		dist[topo.Node(rel)] = ws
	}
	return &routing.Table{Label: label, Dist: dist}
}

// unfold expands an LP solution into the full flow table through the flow
// LP's expansion.
func (p *PathLP) unfold(x []float64) *eval.Flow {
	return p.flp.expand(func(ci int, c topo.Channel) float64 {
		load := 0.0
		for _, v := range p.onChan[ci][c] {
			load += x[v]
		}
		return load
	})
}

// PathResult bundles a designed path-based algorithm with its metrics.
type PathResult struct {
	Table *routing.Table
	Flow  *eval.Flow
	// Objective of the final stage's LP (worst-case load, mean max load,
	// or total path length depending on the stage).
	Objective float64
	GammaWC   float64
	HAvg      float64
	HNorm     float64
	Rounds    int
}

// pairRowPath adds the lazy potential constraint
// load_{s,d}(c) - u_s - v_d <= 0 in path variables.
func (p *PathLP) pairRowPath(b *potBlock, s, d int) {
	terms := append(p.appendPairLoad(nil, b.ch, s, d, 1),
		lp.Term{Var: b.u + lp.VarID(s), Coef: -1},
		lp.Term{Var: b.v + lp.VarID(d), Coef: -1},
	)
	p.flp.solver.AddCut(terms, lp.LE, 0)
	b.added[s*p.T.N+d] = true
}

// solveWC runs worst-case constraint generation against the given bound
// using the matching-dual potential formulation (lazy pair rows). When
// fixedBound is NaN the w variable is free (stage 1); otherwise rows must
// hold at the fixed numeric bound (stage 2). The per-block oracles run on
// Options.Workers goroutines; rows are added in block order afterwards, so
// the cut sequence is worker-count independent.
func (p *PathLP) solveWC(ctx context.Context, fixedBound float64) (*lp.Solution, *Result, error) {
	f := p.flp
	tol := f.opts.tol()
	o := newRepOracle(f.seps)
	return p.run(ctx, "path LP cuts", false, func(ctx context.Context, sol *lp.Solution) (*eval.Flow, float64, bool, error) {
		flow := p.unfold(sol.X)
		gw, err := o.run(ctx, f.opts.Workers, flow, nil)
		if err != nil {
			return nil, 0, false, err
		}
		bound := fixedBound
		if math.IsNaN(bound) {
			bound = sol.X[f.wVar]
		}
		// Unlike the flow formulation (whose conservation base is large),
		// the path LP's base is only one row per commodity, so growing
		// every violated block each round is cheap and cuts round count.
		// Aggregate permutation cuts are added only when a violated block
		// has no pair row left past tolerance (many rows each barely past
		// it can sum to a real violation): their rows are dense in path
		// variables and would bloat every later pricing pass.
		limit := bound + tol*math.Max(1, bound)
		violated := false
		for bi, b := range f.blocks {
			if o.gammas[bi] <= limit {
				continue
			}
			violated = true
			rows := violatedPairs(p.T.N, b, sol.X, o.loads[bi], tol, maxPathRowsPerBlockRound)
			for _, idx := range rows {
				p.pairRowPath(b, idx/p.T.N, idx%p.T.N)
			}
			if len(rows) == 0 {
				p.matrixCut(b.ch, traffic.Permutation(o.perms[bi]), f.wVar)
			}
		}
		return flow, gw, violated, nil
	})
}

// run drives one path-LP cut loop to certification and returns the final
// LP solution with the driver's certified result; sampled is the cutLoop
// field. Path designs cannot degrade: an expired context surfaces as the
// context's error and any other exhausted budget or failed check as an
// error naming it.
func (p *PathLP) run(ctx context.Context, name string, sampled bool, separate separateFunc) (*lp.Solution, *Result, error) {
	var last *lp.Solution
	l := &cutLoop{name: name, opts: p.flp.opts, solve: p.flp.solver.SolveCtx, sampled: sampled,
		separate: func(ctx context.Context, sol *lp.Solution) (*eval.Flow, float64, bool, error) {
			last = sol
			return separate(ctx, sol)
		}}
	res, err := l.run(ctx)
	switch {
	case (err != nil || !res.Certified) && ctx.Err() != nil:
		return nil, nil, ctx.Err()
	case err != nil:
		return nil, nil, err
	case !res.Certified:
		return nil, nil, fmt.Errorf("design: %s", res.Reason)
	}
	return last, res, nil
}

// DesignTwoTurn produces the 2TURN algorithm (Section 5.2): over all
// at-most-two-turn paths, first minimize worst-case channel load, then
// minimize average path length while keeping the worst case within
// Options.Slack of optimal.
func DesignTwoTurn(t *topo.Torus, opts Options) (*PathResult, error) {
	return DesignTwoTurnCtx(context.Background(), t, opts)
}

// DesignTwoTurnCtx is DesignTwoTurn under a cancellation context.
func DesignTwoTurnCtx(ctx context.Context, t *topo.Torus, opts Options) (*PathResult, error) {
	return designPathWC(ctx, t, paths.TwoTurnPaths, "2TURN", opts)
}

// designPathWC is the two-stage (worst case, then locality) path design.
func designPathWC(ctx context.Context, t *topo.Torus, family PathFamily, label string, opts Options) (*PathResult, error) {
	p, err := NewPathLP(t, family, nil, false, opts)
	if err != nil {
		return nil, err
	}
	sol, stage1, err := p.solveWC(ctx, math.NaN())
	if err != nil {
		return nil, err
	}
	wStar := sol.X[p.flp.wVar] * (1 + opts.slack())

	// Stage 2: cap w, objective becomes total path length.
	// The cap is a variable bound, not a cut row: bounded-simplex state
	// instead of one more basis row.
	p.flp.solver.SetVarUpper(p.flp.wVar, wStar)
	p.setLengthObjective(p.flp.wVar)
	sol, res, err := p.solveWC(ctx, wStar)
	if err != nil {
		return nil, err
	}
	return p.finish(sol, res, label, stage1.Rounds), nil
}

// DesignTwoTurnAvg produces the 2TURNA algorithm (Section 5.4): over the
// two-turn paths, first maximize (approximate) average-case throughput on
// the sample, then maximize locality at that throughput.
func DesignTwoTurnAvg(t *topo.Torus, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	return DesignTwoTurnAvgCtx(context.Background(), t, samples, opts)
}

// DesignTwoTurnAvgCtx is DesignTwoTurnAvg under a cancellation context.
func DesignTwoTurnAvgCtx(ctx context.Context, t *topo.Torus, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	return designPathAvg(ctx, t, paths.TwoTurnPaths, "2TURNA", samples, opts)
}

// DesignMinimalAvg runs the 2TURNA construction restricted to minimal
// paths; Section 5.4 observes the result matches ROMM's performance.
func DesignMinimalAvg(t *topo.Torus, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	return designPathAvg(context.Background(), t, paths.MinimalTwoTurnPaths, "MIN-AVG", samples, opts)
}

func designPathAvg(ctx context.Context, t *topo.Torus, family PathFamily, label string, samples []*traffic.Matrix, opts Options) (*PathResult, error) {
	p, err := NewPathLP(t, family, samples, false, opts)
	if err != nil {
		return nil, err
	}
	sol, stage1, err := p.solveAvg(ctx)
	if err != nil {
		return nil, err
	}
	vStar := sol.Objective * (1 + opts.slack())

	// Stage 2: bound the mean of the t variables, minimize path length.
	inv := 1 / float64(len(samples))
	terms := make([]lp.Term, len(p.tVars))
	for i, v := range p.tVars {
		terms[i] = lp.Term{Var: v, Coef: inv}
	}
	p.flp.solver.AddCut(terms, lp.LE, vStar)
	p.setLengthObjective(p.tVars...)
	sol, stage2, err := p.solveAvg(ctx)
	if err != nil {
		return nil, err
	}
	res := p.finish(sol, stage2, label, stage1.Rounds)
	// Report the stage-1 objective (mean max load) as the result objective.
	var mean float64
	for _, v := range p.tVars {
		mean += sol.X[v] * inv
	}
	res.Objective = mean
	return res, nil
}

// solveAvg runs per-sample constraint generation (see sampleSeparator).
func (p *PathLP) solveAvg(ctx context.Context) (*lp.Solution, *Result, error) {
	opts := p.flp.opts
	return p.run(ctx, "path avg LP cuts", true, sampleSeparator(opts.Workers, p.samples, p.tVars, opts.tol(), p.unfold, p.matrixCut, nil))
}

// finish packages a certified final stage as a PathResult; stage1Rounds
// adds the first stage's rounds to the reported total.
func (p *PathLP) finish(sol *lp.Solution, res *Result, label string, stage1Rounds int) *PathResult {
	return &PathResult{
		Table:     p.table(sol.X, label),
		Flow:      res.Flow,
		Objective: res.Objective,
		GammaWC:   res.GammaWC,
		HAvg:      res.HAvg,
		HNorm:     res.HNorm,
		Rounds:    stage1Rounds + res.Rounds,
	}
}
