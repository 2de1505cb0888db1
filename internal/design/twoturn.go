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
// paths from the canonical source to every relative destination, with
// constraint-generated worst-case or average-case load bounds.
type PathLP struct {
	T    *topo.Torus
	opts Options

	rels   []topo.Node // relative destinations, 1..N-1
	pths   [][]paths.Path
	chBits [][][]uint64 // [relIdx][pathIdx] channel bitset
	varOf  [][]lp.VarID
	lens   [][]int

	solver *lp.Solver
	wVar   lp.VarID
	tVars  []lp.VarID
	hRow   lp.RowID
	hasH   bool
	blocks []*potBlock // matching-dual potentials (worst-case mode)

	samples []*traffic.Matrix
}

// NewPathLP enumerates the family and builds the base LP (distribution rows
// per destination, objective min w or min mean(t) when samples are given).
// It fails if the family produces no path for some destination: the caller
// supplies the family, so an empty one is a data condition, not a bug.
func NewPathLP(t *topo.Torus, family PathFamily, samples []*traffic.Matrix, withLocality bool, opts Options) (*PathLP, error) {
	p := &PathLP{T: t, opts: opts, samples: samples, hRow: -1}
	words := (t.C + 63) / 64
	m := lp.NewModel()
	for rel := 1; rel < t.N; rel++ {
		ps := family(t, 0, topo.Node(rel))
		if len(ps) == 0 {
			return nil, fmt.Errorf("design: empty path family for destination %d", rel)
		}
		vars := make([]lp.VarID, len(ps))
		bits := make([][]uint64, len(ps))
		lens := make([]int, len(ps))
		for i, path := range ps {
			vars[i] = m.AddVar(0, "")
			b := make([]uint64, words)
			for _, c := range path.Channels(t) {
				b[int(c)/64] |= 1 << (uint(c) % 64)
			}
			bits[i] = b
			lens[i] = path.Len()
		}
		p.rels = append(p.rels, topo.Node(rel))
		p.pths = append(p.pths, ps)
		p.chBits = append(p.chBits, bits)
		p.varOf = append(p.varOf, vars)
		p.lens = append(p.lens, lens)
	}
	p.wVar = m.AddVar(0, "w")
	if samples == nil {
		m.SetObj(p.wVar, 1)
		p.blocks = addPotentialBlocks(m, t, t.TransGroup().ChanOrbitReps(), p.wVar)
	} else {
		inv := 1 / float64(len(samples))
		p.tVars = make([]lp.VarID, len(samples))
		for i := range samples {
			p.tVars[i] = m.AddVar(inv, fmt.Sprintf("t[%d]", i))
		}
	}

	// Unit-distribution rows.
	for ri := range p.rels {
		terms := make([]lp.Term, len(p.varOf[ri]))
		for i, v := range p.varOf[ri] {
			terms[i] = lp.Term{Var: v, Coef: 1}
		}
		m.AddRow(terms, lp.EQ, 1, "")
	}
	if withLocality {
		var terms []lp.Term
		for ri := range p.rels {
			for i, v := range p.varOf[ri] {
				if p.lens[ri][i] != 0 {
					terms = append(terms, lp.Term{Var: v, Coef: float64(p.lens[ri][i])})
				}
			}
		}
		p.hRow = m.AddRow(terms, lp.LE, float64(t.N)*t.MeanMinDist(), "H")
		p.hasH = true
	}
	p.solver = lp.NewSolver(m)
	// Path LPs have enormous, harmless optimal faces (any optimal vertex
	// is an equally valid probability weighting); the anti-degeneracy cost
	// jitter would make the simplex chase a noise-optimal vertex across
	// that face, so switch it off here.
	p.solver.SetJitter(false)
	return p, nil
}

// SetLocality re-targets the locality row (normalized units).
func (p *PathLP) SetLocality(hNorm float64) {
	if !p.hasH {
		//lint:ignore libpanic caller bug, not a data condition: every in-package caller builds the LP with a locality row
		panic("design: SetLocality on a path LP built without a locality row")
	}
	p.solver.SetRHS(int(p.hRow), hNorm*float64(p.T.N)*p.T.MeanMinDist())
}

// appendPairLoad appends coef times the load pair (s, d) places on channel
// c, in path variables: the pair's relative-destination paths that cross c
// once it is translated into source s's frame.
func (p *PathLP) appendPairLoad(terms []lp.Term, c topo.Channel, s, d int, coef float64) []lp.Term {
	t := p.T
	ux, uy := t.Coord(t.ChanSrc(c))
	sx, sy := t.Coord(topo.Node(s))
	tc := t.Chan(t.NodeAt(ux-sx, uy-sy), t.ChanDir(c))
	rx, ry := t.Rel(topo.Node(s), topo.Node(d))
	ri := int(t.NodeAt(rx, ry)) - 1 // relative destinations start at 1
	for i, v := range p.varOf[ri] {
		if p.chBits[ri][i][int(tc)/64]&(1<<(uint(tc)%64)) != 0 {
			terms = append(terms, lp.Term{Var: v, Coef: coef})
		}
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
	p.solver.AddCut(terms, lp.LE, 0)
}

// table converts an LP solution into a routing table (dropping
// zero-probability paths and renormalizing away LP tolerance dust).
func (p *PathLP) table(x []float64, label string) *routing.Table {
	dist := make(map[topo.Node][]paths.Weighted, len(p.rels))
	for ri, rel := range p.rels {
		var ws []paths.Weighted
		var sum float64
		for i, v := range p.varOf[ri] {
			if pr := x[v]; pr > pathProbFloor {
				ws = append(ws, paths.Weighted{Path: p.pths[ri][i], Prob: pr})
				sum += pr
			}
		}
		for i := range ws {
			ws[i].Prob /= sum
		}
		dist[rel] = ws
	}
	return &routing.Table{Label: label, Dist: dist}
}

// flowOf builds the flow table of an LP solution.
func (p *PathLP) flowOf(x []float64) *eval.Flow {
	f := eval.NewFlow(p.T)
	for ri, rel := range p.rels {
		for i, v := range p.varOf[ri] {
			pr := x[v]
			//lint:ignore floatcmp sparsity skip: nonbasic LP variables are exactly 0
			if pr == 0 {
				continue
			}
			for _, c := range p.pths[ri][i].Channels(p.T) {
				f.X[rel][c] += pr
			}
		}
	}
	return f
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
	p.solver.AddCut(terms, lp.LE, 0)
	b.added[s*p.T.N+d] = true
}

// solveWC runs worst-case constraint generation against the given bound
// using the matching-dual potential formulation (lazy pair rows). When
// fixedBound is NaN the w variable is free (stage 1); otherwise rows must
// hold at the fixed numeric bound (stage 2). The per-block oracles run on
// Options.Workers goroutines; rows are added in block order afterwards, so
// the cut sequence is worker-count independent.
func (p *PathLP) solveWC(ctx context.Context, fixedBound float64) (*lp.Solution, *Result, error) {
	tol := p.opts.tol()
	chans := make([]topo.Channel, len(p.blocks))
	for bi, b := range p.blocks {
		chans[bi] = b.ch
	}
	o := newRepOracle(chans)
	return p.run(ctx, "path LP cuts", func(ctx context.Context, sol *lp.Solution) (*eval.Flow, float64, bool, error) {
		flow := p.flowOf(sol.X)
		gw, err := o.run(ctx, p.opts.Workers, flow, nil)
		if err != nil {
			return nil, 0, false, err
		}
		bound := fixedBound
		if math.IsNaN(bound) {
			bound = sol.X[p.wVar]
		}
		// Unlike the flow formulation (whose conservation base is large),
		// the path LP's base is only one row per destination, so growing
		// every violated block each round is cheap and cuts round count.
		// Aggregate permutation cuts are NOT added here: their rows are
		// dense in path variables and bloat every subsequent pricing pass.
		limit := bound + tol*math.Max(1, bound)
		violated, progressed := false, false
		for bi, b := range p.blocks {
			if o.gammas[bi] <= limit {
				continue
			}
			violated = true
			for _, idx := range violatedPairs(p.T.N, b, sol.X, o.loads[bi], tol, maxPathRowsPerBlockRound) {
				p.pairRowPath(b, idx/p.T.N, idx%p.T.N)
				progressed = true
			}
		}
		if violated && !progressed {
			return nil, 0, false, fmt.Errorf("design: path LP oracle violated but no rows to add")
		}
		return flow, gw, violated, nil
	})
}

// run drives one path-LP cut loop to certification and returns the final
// LP solution with the driver's certified result. Path designs cannot
// degrade: an expired context surfaces as the context's error and any
// other exhausted budget as an error naming it.
func (p *PathLP) run(ctx context.Context, name string, separate separateFunc) (*lp.Solution, *Result, error) {
	var last *lp.Solution
	l := &cutLoop{name: name, opts: p.opts, solve: p.solver.SolveCtx,
		separate: func(ctx context.Context, sol *lp.Solution) (*eval.Flow, float64, bool, error) {
			last = sol
			return separate(ctx, sol)
		}}
	res, err := l.run(ctx)
	if err != nil || !res.Certified {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if !res.Certified {
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
	slack := opts.slack()
	p, err := NewPathLP(t, family, nil, false, opts)
	if err != nil {
		return nil, err
	}
	sol, stage1, err := p.solveWC(ctx, math.NaN())
	if err != nil {
		return nil, err
	}
	wStar := sol.X[p.wVar] * (1 + slack)

	// Stage 2: cap w, objective becomes total path length.
	// The cap is a variable bound, not a cut row: bounded-simplex state
	// instead of one more basis row.
	p.solver.SetVarUpper(p.wVar, wStar)
	for ri := range p.rels {
		for i, v := range p.varOf[ri] {
			p.solver.SetObjCoef(v, float64(p.lens[ri][i]))
		}
	}
	p.solver.SetObjCoef(p.wVar, 0)
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
	slack := opts.slack()
	p, err := NewPathLP(t, family, samples, false, opts)
	if err != nil {
		return nil, err
	}
	sol, stage1, err := p.solveAvg(ctx)
	if err != nil {
		return nil, err
	}
	vStar := sol.Objective * (1 + slack)

	// Stage 2: bound the mean of the t variables, minimize path length.
	inv := 1 / float64(len(samples))
	terms := make([]lp.Term, len(p.tVars))
	for i, v := range p.tVars {
		terms[i] = lp.Term{Var: v, Coef: inv}
	}
	p.solver.AddCut(terms, lp.LE, vStar)
	for ri := range p.rels {
		for i, v := range p.varOf[ri] {
			p.solver.SetObjCoef(v, float64(p.lens[ri][i]))
		}
	}
	for _, v := range p.tVars {
		p.solver.SetObjCoef(v, 0)
	}
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
	return p.run(ctx, "path avg LP cuts", sampleSeparator(p.opts.Workers, p.samples, p.tVars, p.opts.tol(), p.flowOf, p.matrixCut, nil))
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
