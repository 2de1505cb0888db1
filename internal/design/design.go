// Package design implements the routing-algorithm design problems of the
// paper as linear programs and solves them to global optimality:
//
//   - capacity (equation 6): minimize the maximum channel load under
//     uniform traffic;
//   - worst-case throughput (equations 7/8/10): minimize the worst channel
//     load over all permutation traffic, optionally under an average path
//     length budget H_avg <= L (the Pareto sweeps of Figure 1; the paper
//     writes H_avg = L, but with self commodities excluded the budget form
//     is the faithful Pareto semantics -- excess length would otherwise be
//     parked on self-pair paths that adversarial permutations never load);
//   - average-case throughput (equations 9/15): minimize the mean maximum
//     channel load over a fixed sample of doubly-stochastic matrices
//     (Figure 6);
//   - path-restricted designs over the two-turn path space (2TURN, 2TURNA,
//     Section 5.2/5.4).
//
// Instead of the appendix's monolithic dual reformulation, the worst-case
// problems are solved by constraint generation: the LP carries only the
// permutation constraints discovered so far, and the exact separation
// oracle -- a Hungarian maximum-weight matching on the pair-load matrix of a
// representative channel -- either certifies optimality or produces a
// violated permutation. Because the generated LP is a relaxation and the
// incumbent routing function is feasible, the gap between the LP objective
// and the oracle's load sandwiches the true optimum; convergence is
// self-certifying. The same pattern handles the per-sample maxima of the
// average-case problem.
//
// Symmetry (Section 4) enters through variable folding: commodities are
// restricted to canonical pair classes of the topology's automorphism group
// (translation folding alone, or the full group), with every pair's channel
// loads expressed over the folded variables through explicit automorphisms.
// Both foldings are implemented and cross-checked in tests; convexity of the
// cost functions guarantees a symmetric optimum exists, so folding loses
// nothing. The machinery is generic over topo.Topology: on the 2D torus the
// full group is the dihedral octant folding of the original engine, on the
// 3D torus the hyperoctahedral cone, and on the mesh the box-fixing
// reflections.
package design

import (
	"context"
	"errors"
	"fmt"
	"math"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/matching"
	"tcr/internal/par"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// Fold selects the symmetry reduction of the design LPs, flow and path
// alike; the sampled path LPs (2TURNA, MIN-AVG) always fold by translation.
type Fold int

const (
	// FoldOctant folds commodities over the topology's full automorphism
	// group: one commodity per pair class (on the 2D torus, one per
	// canonical octant destination -- hence the name). Smallest LPs.
	FoldOctant Fold = iota
	// FoldTranslation folds over the translation subgroup only: one
	// commodity per relative destination on vertex-transitive families, one
	// per ordered pair otherwise. Larger LPs; used to cross-check the full
	// folding.
	FoldTranslation
)

// Numerical tolerances shared across the design LPs.
const (
	// defaultTol is the relative convergence tolerance used when
	// Options.Tol is unset: the oracle certifies optimality once no
	// permutation load exceeds the LP bound by more than this fraction.
	defaultTol = 1e-6
	// defaultSlack is the stage-2 slack applied to the optimal
	// worst-case load in the lexicographic designs when the caller
	// passes slack <= 0; it keeps the stage-2 LP strictly feasible.
	defaultSlack = 1e-6
	// pathProbFloor drops path probabilities below LP tolerance dust
	// when converting a solution into a routing table.
	pathProbFloor = 1e-12
	// decompCoverTol terminates flow decomposition once this little
	// source flow remains unextracted.
	decompCoverTol = 1e-7
)

// Cuts selects the constraint-generation strategy for worst-case problems.
type Cuts int

const (
	// CutPotentials (default) uses the paper's LP (8): matching-dual
	// potential variables per representative channel with lazily added
	// pair rows. Converges in few rounds.
	CutPotentials Cuts = iota
	// CutPermutations adds one worst-permutation row per representative
	// channel per round (pure cutting planes). Slower; kept as a
	// cross-check and ablation baseline.
	CutPermutations
)

// Options tunes the solvers; the zero value is ready to use.
type Options struct {
	// Fold selects the symmetry reduction (default FoldOctant).
	Fold Fold
	// Cuts selects the worst-case constraint strategy (default
	// CutPotentials).
	Cuts Cuts
	// MaxRounds bounds cutting-plane iterations (default 200).
	MaxRounds int
	// Tol is the relative convergence tolerance (default 1e-6).
	Tol float64
	// Workers bounds the separation oracles' parallelism: the
	// per-channel Hungarian matchings and the per-sample load scans of a
	// cutting-plane round run on this many goroutines. 0 means all cores
	// (GOMAXPROCS). Cuts are added in a fixed order afterwards, so every
	// worker count produces the same result bit for bit. Pareto sweeps
	// always share one warm-started LP across their points.
	Workers int
	// Slack is the stage-2 slack on the optimal first-stage objective
	// used by the lexicographic (throughput-then-locality) designs; it
	// keeps the stage-2 LP strictly feasible. 0 or negative selects the
	// default 1e-6.
	Slack float64
	// Retries bounds how many times a cutting-plane round is re-attempted
	// after a numerical failure that survived the LP solver's own recovery
	// ladder; each retry rebuilds a fresh solver from the cut log after an
	// exponential backoff. 0 selects the default of 2; negative disables
	// retries.
	Retries int
	// Checkpoint, when non-empty, is a file path the worst-case flow-LP
	// cut loops snapshot their state to (accumulated cuts, simplex basis,
	// pricing cursor), so a killed run restarted with the same path
	// resumes bit for bit instead of recomputing. See checkpoint.go for the
	// exact resume semantics. The average-case, capacity and path-LP loops
	// ignore it, as they ignore WarmFrom and FinalSnapshot.
	Checkpoint string
	// CheckpointEvery is the snapshot cadence in cutting-plane rounds
	// (default 1: every round).
	CheckpointEvery int
	// WarmFrom, when non-empty, is a final-state snapshot (written by an
	// earlier run via FinalSnapshot) the worst-case cut loops warm-start
	// from when no Checkpoint resumes: the prior run's cuts, simplex basis,
	// and pricing cursor are installed before round zero. Permutation and
	// pair cuts are valid for every locality target, so the snapshot is
	// accepted across differing targets (the sig match relaxes only the
	// locality component) and the locality row is re-aimed at this run's
	// target after the restore. Unlike a checkpoint resume, a warm start
	// begins counting rounds at zero — the round count reports the
	// incremental work. A snapshot that fails integrity or formulation
	// checks is ignored and the loop starts cold.
	WarmFrom string
	// FinalSnapshot, when non-empty, is a file path the worst-case cut
	// loops write their final state to on certification (atomic write),
	// for a later run to warm-start from via WarmFrom.
	FinalSnapshot string
}

// ErrUncertified marks a design outcome whose budgets (rounds, iterations,
// deadline) ran out before the oracle certified optimality. APIs that can
// degrade gracefully return a Result with Certified == false instead; the
// ones that cannot (Pareto sweeps, the CLI) wrap this sentinel.
var ErrUncertified = errors.New("design: result not certified within budgets")

func (o Options) rounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 200
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return defaultTol
}

func (o Options) slack() float64 {
	if o.Slack > 0 {
		return o.Slack
	}
	return defaultSlack
}

func (o Options) retries() int {
	if o.Retries > 0 {
		return o.Retries
	}
	if o.Retries < 0 {
		return 0
	}
	return 2
}

func (o Options) ckptEvery() int {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return 1
}

// commodity is one folded flow commodity: a pair class of the folding
// group, carrying its orbit weight (offsets-per-source on vertex-transitive
// families; ordered-pairs/N in general).
type commodity struct {
	src, dst topo.Node
	weight   float64
}

// FlowLP is a flow-based routing design LP under a symmetry folding. It
// carries the variable layout, the pair-to-variable automorphism maps, and
// the warm-startable solver.
type FlowLP struct {
	T    topo.Topology
	fold Fold
	// n and nc cache T.Nodes() and T.Chans().
	n, nc int
	// grp is the folding group (full or translation, per fold); seps are
	// the separation oracle's representative channels -- one per channel
	// orbit of grp, which the tied columns of addFlowVars make sound (a
	// single channel on the tori, the canonical channel of Section 4).
	grp   topo.AutGroup
	seps  []topo.Channel
	comms []commodity
	// cols[ci*nc+c] is commodity ci's flow column on channel c; nFlow
	// counts the flow columns; stabs[ci] lists the nontrivial automorphisms
	// fixing ci's pair when addFlowVars tied their orbits.
	cols  []lp.VarID
	nFlow int
	stabs [][]topo.AutID
	// pairComm[s*N+d] / pairAut[s*N+d]: the commodity index and the
	// automorphism mapping pair (s, d) onto it; -1 for self pairs.
	pairComm []int
	pairAut  []topo.AutID

	model  *lp.Model
	solver *lp.Solver
	wVar   lp.VarID // the max-load variable
	hRow   lp.RowID // locality budget row, -1 when absent

	// blocks are the matching-dual potential blocks when the LP was built
	// by newPotentialLP; nil for the pure cutting-plane formulation.
	blocks []*potBlock

	// cutLog records every post-construction solver mutation for replay
	// (retry rebuilds and checkpoint restores; see cutlog.go).
	cutLog []cutEntry
	// ckptStage distinguishes the lexicographic design's stages in the
	// checkpoint signature; locNorm is the current locality target.
	ckptStage int
	locNorm   float64

	opts Options
}

// newBareFlowLP builds the folding state (commodities, pair maps, separation
// representatives) without any LP model; the construction entry points add
// their own variables and rows on top.
func newBareFlowLP(t topo.Topology, opts Options) *FlowLP {
	p := &FlowLP{T: t, n: t.Nodes(), nc: t.Chans(), fold: opts.Fold, opts: opts, hRow: -1}
	if p.fold == FoldTranslation {
		p.grp = t.TransGroup()
	} else {
		p.grp = t.Group()
	}
	p.seps = p.grp.ChanOrbitReps()
	p.buildCommodities()
	p.buildPairMaps()
	return p
}

// varID returns the LP variable of (commodity, channel).
func (p *FlowLP) varID(comm int, c topo.Channel) lp.VarID {
	return p.cols[comm*p.nc+int(c)]
}

// NewFlowLP builds the base LP: flow conservation for each folded commodity
// plus the load variable w, with objective min w. A locality budget row
// (H_avg <= L, normalized units; see the package comment on why the paper's
// equality becomes a budget here) is added when withLocality is set; sweep
// it with SetLocality.
func NewFlowLP(t topo.Topology, withLocality bool, opts Options) *FlowLP {
	p := newBareFlowLP(t, opts)

	m := lp.NewModel()
	p.addFlowVars(m, true)
	p.wVar = m.AddVar(1, "w")
	p.addConservation(m, true)
	if withLocality {
		p.addLocalityRow(m)
	}

	p.model = m
	p.solver = lp.NewSolver(m)
	return p
}

// addFlowVars adds the flow columns, which must be the model's first, and
// fills the map varID reads. With tie set, the channels of one orbit of a
// commodity's stabilizer (the automorphisms fixing its pair) share a column.
// PairAut picks one automorphism per pair, so untied, the unfolded routing
// function is invariant only modulo that choice; tied, it is invariant
// under the whole folding group, which makes one separation representative
// per channel orbit exact. Convexity guarantees a fully symmetric optimum
// exists, so tying loses nothing. The variables are unnamed: per-variable
// names were a measurable share of the mesh model-build cost.
func (p *FlowLP) addFlowVars(m *lp.Model, tie bool) {
	p.cols = make([]lp.VarID, len(p.comms)*p.nc)
	if tie {
		p.findStabilizers()
	} else {
		p.stabs = make([][]topo.AutID, len(p.comms))
	}
	for ci := range p.comms {
		row := p.cols[ci*p.nc : (ci+1)*p.nc]
		for c := range row {
			rep := c
			for _, h := range p.stabs[ci] {
				rep = min(rep, int(p.grp.ApplyChan(h, topo.Channel(c))))
			}
			if rep < c {
				row[c] = row[rep]
				continue
			}
			row[c] = lp.VarID(p.nFlow)
			p.nFlow++
		}
	}
	m.AddVars(p.nFlow)
}

// findStabilizers fills stabs: for each commodity, the nontrivial elements
// of the folding group that fix its pair.
func (p *FlowLP) findStabilizers() {
	p.stabs = make([][]topo.AutID, len(p.comms))
	id := p.grp.Identity()
	els := p.grp.Elements()
	for ci, cm := range p.comms {
		for _, h := range els {
			if h != id && p.grp.ApplyNode(h, cm.src) == cm.src && p.grp.ApplyNode(h, cm.dst) == cm.dst {
				p.stabs[ci] = append(p.stabs[ci], h)
			}
		}
	}
}

// addConservation appends the flow-conservation rows: for each commodity and
// node, out - in = supply (+1 at the class source, -1 at its destination).
func (p *FlowLP) addConservation(m *lp.Model, named bool) {
	t := p.T
	var terms []lp.Term // reused across rows; AddRow copies into the model's arena
	for ci, cm := range p.comms {
		for n := 0; n < p.n; n++ {
			nd := topo.Node(n)
			// With tied columns the rows of one stabilizer node orbit
			// coincide; only the orbit's smallest node keeps its row.
			dup := false
			for _, h := range p.stabs[ci] {
				dup = dup || p.grp.ApplyNode(h, nd) < nd
			}
			if dup {
				continue
			}
			deg := t.OutDeg(nd)
			terms = terms[:0]
			for pt := 0; pt < deg; pt++ {
				out := t.PortChan(nd, pt)
				terms = append(terms,
					lp.Term{Var: p.varID(ci, out), Coef: 1},
					lp.Term{Var: p.varID(ci, t.ReverseChan(out)), Coef: -1},
				)
			}
			rhs := 0.0
			switch nd {
			case cm.src:
				rhs = 1
			case cm.dst:
				rhs = -1
			}
			name := ""
			if named {
				name = fmt.Sprintf("cons[%d,%d]", ci, n)
			}
			m.AddRow(terms, lp.EQ, rhs, name)
		}
	}
}

// addLocalityRow appends the H_avg budget row (orbit-weighted total flow).
func (p *FlowLP) addLocalityRow(m *lp.Model) {
	terms := make([]lp.Term, 0, len(p.comms)*p.nc)
	for ci, cm := range p.comms {
		for c := 0; c < p.nc; c++ {
			terms = append(terms, lp.Term{Var: p.varID(ci, topo.Channel(c)), Coef: cm.weight})
		}
	}
	// H_avg = (1/N) * sum weight * pathlen; constrain the sum directly.
	p.hRow = m.AddRow(terms, lp.LE, float64(p.n)*p.T.MeanMinDist(), "H")
}

func (p *FlowLP) buildCommodities() {
	for _, cl := range p.grp.Classes() {
		p.comms = append(p.comms, commodity{src: cl.Src, dst: cl.Dst, weight: cl.Weight})
	}
}

func (p *FlowLP) buildPairMaps() {
	n := p.n
	p.pairComm = make([]int, n*n)
	p.pairAut = make([]topo.AutID, n*n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			ci, a := p.grp.PairAut(topo.Node(s), topo.Node(d))
			p.pairComm[s*n+d] = ci
			p.pairAut[s*n+d] = a
		}
	}
}

// pairLoadVar returns the LP variable carrying the load that pair (s, d)
// places on channel c, or -1 for self pairs.
func (p *FlowLP) pairLoadVar(s, d int, c topo.Channel) lp.VarID {
	idx := s*p.n + d
	ci := p.pairComm[idx]
	if ci < 0 {
		return -1
	}
	return p.varID(ci, p.grp.ApplyChan(p.pairAut[idx], c))
}

// SetLocality re-targets the locality row at normalized average path length
// hNorm (1 = minimal, 2 = twice minimal).
func (p *FlowLP) SetLocality(hNorm float64) {
	if p.hRow < 0 {
		//lint:ignore libpanic caller bug, not a data condition: every in-package caller builds the LP with a locality row
		panic("design: SetLocality on an LP built without a locality row")
	}
	p.locNorm = hNorm
	p.record(cutEntry{Kind: cutLoc, Val: hNorm})
}

// loadCut appends the constraint gamma_c(R, Lambda) <= bound (the w
// variable or a sample's t variable) for a traffic pattern given as a
// permutation or dense matrix.
func (p *FlowLP) permCut(c topo.Channel, perm []int, bound lp.VarID) {
	e := cutEntry{Kind: cutPerm, Ch: int(c), Perm: append([]int(nil), perm...), Bound: int(bound)}
	p.record(e)
}

// matrixCut appends gamma_c(R, Lambda) <= bound for a dense pattern.
func (p *FlowLP) matrixCut(c topo.Channel, lam *traffic.Matrix, bound lp.VarID) {
	p.record(cutEntry{Kind: cutMatrix, Ch: int(c), Bound: int(bound), mat: lam})
}

// matrixCutTerms builds the dense-pattern load cut's terms.
func (p *FlowLP) matrixCutTerms(c topo.Channel, lam *traffic.Matrix, bound lp.VarID) []lp.Term {
	terms := make([]lp.Term, 0, p.n*p.n/4)
	for s := 0; s < p.n; s++ {
		for d := 0; d < p.n; d++ {
			l := lam.L[s][d]
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if l == 0 {
				continue
			}
			if v := p.pairLoadVar(s, d, c); v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coef: l})
			}
		}
	}
	return append(terms, lp.Term{Var: bound, Coef: -1})
}

// unfold expands an LP solution into a full flow table (see expand).
func (p *FlowLP) unfold(x []float64) *eval.Flow {
	return p.expand(func(ci int, c topo.Channel) float64 { return x[p.varID(ci, c)] })
}

// expand builds the full flow table from folded commodity flows, where
// load(ci, c) is commodity ci's flow on channel c: pair (s, d) carries on c
// what its commodity carries on the image of c under the pair's
// automorphism. The table has one row per relative destination on
// vertex-transitive families (the induced translation-invariant routing
// function) and one row per ordered pair otherwise.
func (p *FlowLP) expand(load func(ci int, c topo.Channel) float64) *eval.Flow {
	t := p.T
	f := eval.NewFlow(t)
	fill := func(row []float64, idx int) {
		ci, a := p.pairComm[idx], p.pairAut[idx]
		for c := 0; c < p.nc; c++ {
			row[c] = load(ci, p.grp.ApplyChan(a, topo.Channel(c)))
		}
	}
	if t.VertexTransitive() {
		for rel := 1; rel < p.n; rel++ {
			fill(f.X[rel], rel) // pair (0, rel)
		}
		return f
	}
	for s := 0; s < p.n; s++ {
		for d := 0; d < p.n; d++ {
			if s == d {
				continue
			}
			fill(f.X[s*p.n+d], s*p.n+d)
		}
	}
	return f
}

// Result is the outcome of a design solve: the optimal folded solution
// expanded to a flow table plus its exactly-evaluated metrics.
type Result struct {
	Flow *eval.Flow
	// Objective is the LP objective at convergence (max load for
	// worst-case problems, mean max load for average-case).
	Objective float64
	// GammaWC is the exact worst-case channel load of the returned
	// routing function (Hungarian-evaluated).
	GammaWC float64
	// HAvg is the average path length in hops; HNorm normalized.
	HAvg, HNorm float64
	// Rounds is the number of cutting-plane iterations used.
	Rounds int
	// Iterations is the total simplex pivot count.
	Iterations int
	// Certified reports that the separation oracle proved optimality
	// within the round, pivot, and deadline budgets. When false the
	// result is a graceful degradation: Flow is the best feasible routing
	// encountered (its GammaWC exactly evaluated), Objective the LP lower
	// bound at that round, and Reason says which budget ran out, or that
	// the all-channel worst case exceeded the certified one.
	Certified bool
	// Reason explains an uncertified outcome; empty when Certified.
	Reason string
}

// newWorstCaseLP builds the worst-case LP of the Options.Cuts strategy.
func newWorstCaseLP(t topo.Topology, withLocality bool, opts Options) *FlowLP {
	if opts.Cuts == CutPermutations {
		return NewFlowLP(t, withLocality, opts)
	}
	return newPotentialLP(t, withLocality, opts)
}

// solveWorstCase runs the worst-case cut loop on the current LP state until
// the Hungarian oracle certifies that no permutation loads any
// representative channel beyond the bound by more than tol. The bound is
// the LP's w when fixedBound is NaN; the lexicographic stage 2 passes the
// fixed stage-1 cap instead. The pure cutting-plane formulation adds one
// worst-permutation row per violated representative; the potential LP (8)
// adds the permutation row plus the most violated lazy pair rows.
func (p *FlowLP) solveWorstCase(ctx context.Context, fixedBound float64) (*Result, error) {
	l := &cutLoop{name: "cutting planes", opts: p.opts, solve: p.solveRound, separate: p.worstCaseOracle(fixedBound), ckpt: p}
	if p.blocks != nil {
		l.name, l.lastRoundIters = "potential LP", true
	}
	return l.run(ctx)
}

// worstCaseOracle is the worst-case loops' separation step: the worst
// permutation per channel-orbit representative of the folding group (one
// canonical channel on the tori under the full-group folding; the tied
// columns of addFlowVars, or translation invariance, cover the rest). The
// per-representative oracles run on Options.Workers goroutines; cuts are
// then added in representative order, so the cut sequence is identical for
// every worker count.
//
// Under the potential formulation on vertex-transitive families, which
// have several representatives only under the translation folding, only the
// worst-violated representative is fed each round: the blocks are
// near-copies, and feeding them all multiplies the LP for no information.
// One aggregate permutation cut moves the bound immediately; the pair rows
// supply the matching-dual structure. On the meshes the full-group orbits are genuinely independent, so
// starving all but the worst one would multiply the round count; there, as
// in the pure cutting-plane formulation, every violated representative is
// fed.
func (p *FlowLP) worstCaseOracle(fixedBound float64) separateFunc {
	tol := p.opts.tol()
	o := newRepOracle(p.seps)
	feedAll := p.blocks == nil || !p.T.VertexTransitive()
	return func(ctx context.Context, sol *lp.Solution) (*eval.Flow, float64, bool, error) {
		flow := p.unfold(sol.X)
		gw, err := o.run(ctx, p.opts.Workers, flow, oracleFault)
		if err != nil {
			return nil, 0, false, err
		}
		bound := fixedBound
		if math.IsNaN(bound) {
			bound = sol.X[p.wVar]
		}
		limit := bound + tol*math.Max(1, bound)
		worst, worstG := -1, limit
		for i, g := range o.gammas {
			if g > worstG {
				worstG, worst = g, i
			}
		}
		for i, ch := range p.seps {
			if o.gammas[i] <= limit || (!feedAll && i != worst) {
				continue
			}
			p.permCut(ch, o.perms[i], p.wVar)
			if p.blocks != nil {
				b := p.blocks[i]
				for _, idx := range violatedPairs(p.n, b, sol.X, o.loads[i], tol, maxRowsPerBlockRound) {
					p.pairRow(b, idx/p.n, idx%p.n)
				}
			}
		}
		return flow, gw, worst >= 0, nil
	}
}

// repOracle is one round's exact separation over a set of representative
// channels: each channel's pair-load matrix and its Hungarian maximum-weight
// matching, i.e. the worst permutation and its load on that channel.
type repOracle struct {
	chans  []topo.Channel
	loads  [][][]float64
	perms  [][]int
	gammas []float64
}

func newRepOracle(chans []topo.Channel) *repOracle {
	n := len(chans)
	return &repOracle{chans: chans, loads: make([][][]float64, n), perms: make([][]int, n), gammas: make([]float64, n)}
}

// run evaluates every representative on workers goroutines into its own
// slot and returns the worst load over all of them. fault, when non-nil, is
// the fault-injection hook called before each matching.
func (o *repOracle) run(ctx context.Context, workers int, flow *eval.Flow, fault func() error) (float64, error) {
	err := par.Do(ctx, len(o.chans), workers, func(i int) error {
		if fault != nil {
			if err := fault(); err != nil {
				return err
			}
		}
		o.loads[i] = flow.PairLoadMatrix(o.chans[i])
		perm, g, err := matching.MaxWeightAssignment(o.loads[i])
		if err != nil {
			return err
		}
		o.perms[i], o.gammas[i] = perm, g
		return nil
	})
	if err != nil {
		return 0, err
	}
	gw := o.gammas[0]
	for _, g := range o.gammas[1:] {
		gw = math.Max(gw, g)
	}
	return gw, nil
}

// WorstCaseOptimal designs a routing function with the maximum worst-case
// throughput (no locality constraint): the right-hand end of Figure 1's
// Pareto curve.
func WorstCaseOptimal(t topo.Topology, opts Options) (*Result, error) {
	return WorstCaseOptimalCtx(context.Background(), t, opts)
}

// WorstCaseOptimalCtx is WorstCaseOptimal under a cancellation context: the
// solve aborts between cutting-plane rounds once ctx is done.
func WorstCaseOptimalCtx(ctx context.Context, t topo.Topology, opts Options) (*Result, error) {
	return newWorstCaseLP(t, false, opts).solveWorstCase(ctx, math.NaN())
}

// WorstCaseAtLocality designs the best worst-case routing function whose
// average path length equals hNorm times minimal: one point of Figure 1's
// optimal tradeoff curve (equation 10).
func WorstCaseAtLocality(t topo.Topology, hNorm float64, opts Options) (*Result, error) {
	return WorstCaseAtLocalityCtx(context.Background(), t, hNorm, opts)
}

// WorstCaseAtLocalityCtx is WorstCaseAtLocality under a cancellation context.
func WorstCaseAtLocalityCtx(ctx context.Context, t topo.Topology, hNorm float64, opts Options) (*Result, error) {
	p := newWorstCaseLP(t, true, opts)
	p.SetLocality(hNorm)
	return p.solveWorstCase(ctx, math.NaN())
}

// ParetoPoint is one sample of an optimal tradeoff curve.
type ParetoPoint struct {
	HNorm float64 // normalized average path length (the constraint)
	// Theta is the optimal throughput at this locality, as a fraction of
	// network capacity.
	Theta float64
	// Gamma is the corresponding optimal load objective.
	Gamma float64
}

// WorstCaseParetoCurve sweeps the locality constraint over hNorms and
// returns the optimal worst-case throughput at each point. See
// WorstCaseParetoCurveCtx for the sweep strategy.
func WorstCaseParetoCurve(t topo.Topology, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	return WorstCaseParetoCurveCtx(context.Background(), t, hNorms, opts)
}

// WorstCaseParetoCurveCtx sweeps the locality constraint over hNorms under a
// cancellation context. The sweep reuses one LP, and its accumulated cuts
// (permutation constraints are valid for every L), across the points in
// order, re-aiming only the locality row; Options.Workers parallelizes the
// oracles inside each point, so every worker count returns the same points
// bit for bit.
func WorstCaseParetoCurveCtx(ctx context.Context, t topo.Topology, hNorms []float64, opts Options) ([]ParetoPoint, error) {
	// Sweeps cannot degrade gracefully (a curve with silently uncertified
	// points is worse than no curve) and must not share one checkpoint
	// file across points, so checkpointing is disabled and an uncertified
	// point surfaces as an ErrUncertified-wrapping error. The same sharing
	// hazard disables the warm-start snapshot paths.
	opts.Checkpoint = ""
	opts.WarmFrom, opts.FinalSnapshot = "", ""
	p := newWorstCaseLP(t, true, opts)
	return sweep(t, hNorms, p.SetLocality,
		func() (*Result, error) { return p.solveWorstCase(ctx, math.NaN()) },
		func(res *Result) float64 { return res.GammaWC })
}

// sweep solves one Pareto point per locality target, in order, on a shared
// warm-started LP: retarget moves the LP's locality row, solve certifies
// the point, and gamma reads its optimal load off the result.
func sweep(t topo.Topology, hNorms []float64, retarget func(float64), solve func() (*Result, error), gamma func(*Result) float64) ([]ParetoPoint, error) {
	cap := eval.NetworkCapacity(t)
	out := make([]ParetoPoint, 0, len(hNorms))
	for _, h := range hNorms {
		retarget(h)
		res, err := solve()
		if err != nil {
			return nil, fmt.Errorf("L=%v: %w", h, err)
		}
		if !res.Certified {
			return nil, fmt.Errorf("L=%v: %w: %s", h, ErrUncertified, res.Reason)
		}
		g := gamma(res)
		out = append(out, ParetoPoint{HNorm: h, Theta: (1 / g) / cap, Gamma: g})
	}
	return out, nil
}

// MinLocalityAtWorstCase performs the two-stage (lexicographic) design used
// for Figure 4's "optimal" series: first find the best achievable worst-case
// load w*, then minimize average path length subject to keeping the
// worst-case load within (1+Options.Slack) of w*.
func MinLocalityAtWorstCase(t topo.Topology, opts Options) (*Result, error) {
	return MinLocalityAtWorstCaseCtx(context.Background(), t, opts)
}

// MinLocalityAtWorstCaseCtx is MinLocalityAtWorstCase under a cancellation
// context.
func MinLocalityAtWorstCaseCtx(ctx context.Context, t topo.Topology, opts Options) (*Result, error) {
	p := newPotentialLP(t, false, opts)
	stage1, err := p.solveWorstCase(ctx, math.NaN())
	if err != nil {
		return nil, err
	}
	if !stage1.Certified {
		// Without a certified w* there is no sound stage-2 cap; degrade
		// to the best stage-1 routing instead of minimizing locality
		// against a bound that may be wrong.
		stage1.Reason = "stage 1: " + stage1.Reason
		return stage1, nil
	}
	wStar := stage1.Objective * (1 + opts.slack())

	// Stage 2: cap w, flip the objective to total (orbit-weighted) path
	// length, and resume lazy-row generation at the fixed load bound. Both
	// mutations go through the cut log so retry rebuilds and checkpoints
	// replay them; the stage bump keeps stage-2 checkpoints from ever
	// restoring into a stage-1 loop.
	p.ckptStage = 2
	p.record(cutEntry{Kind: cutCapW, Val: wStar})
	p.record(cutEntry{Kind: cutObjLen})

	res, err := p.solveWorstCase(ctx, wStar)
	if err != nil {
		return nil, fmt.Errorf("design: stage 2: %w", err)
	}
	// Report rounds across both stages and H in the objective.
	res.Rounds += stage1.Rounds
	if !res.Certified {
		res.Reason = "stage 2: " + res.Reason
	}
	return res, nil
}
