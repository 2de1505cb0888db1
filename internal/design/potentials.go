package design

import (
	"fmt"
	"sort"

	"tcr/internal/lp"
	"tcr/internal/topo"
)

// This file implements the paper's worst-case LP (8) directly: for each
// representative channel c, dual "potential" variables u_{s,c} and v_{d,c}
// bound every pair's load (the third constraint block of (8)) and their sum
// bounds w (the fourth block). By Birkhoff/König duality, the minimum of
// sum(u)+sum(v) subject to u_s + v_d >= load_{s,d}(c) equals the
// maximum-weight matching, i.e. the worst permutation load on c, so
// minimizing w yields exactly gamma_wc.
//
// Symmetry reduces the channel set to one representative per channel orbit
// of the folding group (the O(CN) -> O(N) collapse of Section 4: the single
// canonical channel on the tori under the full-group folding, one per
// direction under the translation folding, a few orbits on a mesh); the pair
// constraint blocks, which would be |reps| N^2 rows, are generated lazily --
// only pairs whose load exceeds the current potentials enter the LP. The
// Hungarian oracle then certifies optimality exactly.

// potBlock is the potential-variable block of one representative channel.
type potBlock struct {
	idx int // index in FlowLP.blocks, recorded in cut-log pair entries
	ch  topo.Channel
	// u and v are the first of N consecutive variables each. Because
	// channel loads are nonnegative, the matching dual may be restricted
	// to nonnegative potentials (the dual of the <=-relaxed assignment
	// LP), which keeps the LP free of mirrored free-variable columns.
	u, v  lp.VarID
	added map[int]bool // s*N+d pairs already constrained
}

// addPotentialBlocks extends the model with potential variables and the sum
// rows sum(u)+sum(v) <= w, one block per given separation representative (a
// flow or path LP's seps, one channel per orbit of its folding group). Must
// run before the solver is constructed.
func addPotentialBlocks(m *lp.Model, t topo.Topology, reps []topo.Channel, wVar lp.VarID) []*potBlock {
	n := t.Nodes()
	blocks := make([]*potBlock, 0, len(reps))
	for bi, ch := range reps {
		b := &potBlock{idx: bi, ch: ch, added: make(map[int]bool)}
		b.u = m.AddVars(n)
		b.v = m.AddVars(n)
		terms := make([]lp.Term, 0, 2*n+1)
		for i := 0; i < n; i++ {
			terms = append(terms,
				lp.Term{Var: b.u + lp.VarID(i), Coef: 1},
				lp.Term{Var: b.v + lp.VarID(i), Coef: 1},
			)
		}
		terms = append(terms, lp.Term{Var: wVar, Coef: -1})
		m.AddRow(terms, lp.LE, 0, fmt.Sprintf("potsum[%v]", blockLabel(t, ch)))
		blocks = append(blocks, b)
	}
	return blocks
}

// blockLabel names a potential block's sum row: the direction on the 2D
// torus (preserving the historical row names), the channel index elsewhere.
func blockLabel(t topo.Topology, ch topo.Channel) any {
	if tt, ok := t.(*topo.Torus); ok {
		return tt.ChanDir(ch)
	}
	return int(ch)
}

// pairRow adds the lazy constraint load_{s,d}(c) - u_s - v_d <= 0.
func (p *FlowLP) pairRow(b *potBlock, s, d int) {
	p.record(cutEntry{Kind: cutPair, Block: b.idx, S: s, D: d})
}

// pairRowTerms builds a lazy pair row's terms.
func (p *FlowLP) pairRowTerms(b *potBlock, s, d int) []lp.Term {
	return []lp.Term{
		{Var: p.pairLoadVar(s, d, b.ch), Coef: 1},
		{Var: b.u + lp.VarID(s), Coef: -1},
		{Var: b.v + lp.VarID(d), Coef: -1},
	}
}

// violatedPairs selects at most maxRows pair rows to add for a block: for every
// source the most violated destination and for every destination the most
// violated source (deduplicated, ordered by decreasing violation). This
// covers the whole bipartite structure each round -- the matching dual needs
// roughly one tight row per source and destination -- instead of letting the
// most violated entries crowd into a few rows of the load matrix.
func violatedPairs(n int, b *potBlock, x []float64, load [][]float64, tol float64, maxRows int) []int {
	type viol struct {
		idx int
		by  float64
	}
	viols := make(map[int]float64)
	for s := 0; s < n; s++ {
		us := x[b.u+lp.VarID(s)]
		bestIdx, bestBy := -1, tol
		for d := 0; d < n; d++ {
			if s == d || b.added[s*n+d] {
				continue
			}
			if by := load[s][d] - us - x[b.v+lp.VarID(d)]; by > bestBy {
				bestBy, bestIdx = by, s*n+d
			}
		}
		if bestIdx >= 0 {
			viols[bestIdx] = bestBy
		}
	}
	for d := 0; d < n; d++ {
		vd := x[b.v+lp.VarID(d)]
		bestIdx, bestBy := -1, tol
		for s := 0; s < n; s++ {
			if s == d || b.added[s*n+d] {
				continue
			}
			if by := load[s][d] - x[b.u+lp.VarID(s)] - vd; by > bestBy {
				bestBy, bestIdx = by, s*n+d
			}
		}
		if bestIdx >= 0 {
			viols[bestIdx] = bestBy
		}
	}
	vs := make([]viol, 0, len(viols))
	for idx, by := range viols {
		vs = append(vs, viol{idx, by})
	}
	sort.Slice(vs, func(i, j int) bool {
		//lint:ignore floatcmp ordering comparator: exact != only decides whether to fall through to the index tiebreak
		if vs[i].by != vs[j].by {
			return vs[i].by > vs[j].by
		}
		return vs[i].idx < vs[j].idx
	})
	if len(vs) > maxRows {
		vs = vs[:maxRows]
	}
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.idx
	}
	return out
}

// newPotentialLP builds the worst-case design LP in the paper's form (8),
// with lazily generated pair rows.
func newPotentialLP(t topo.Topology, withLocality bool, opts Options) *FlowLP {
	p := newBareFlowLP(t, opts)

	m := lp.NewModel()
	p.addFlowVars(m, true)
	p.wVar = m.AddVar(1, "w")
	blocks := addPotentialBlocks(m, t, p.seps, p.wVar)
	p.addConservation(m, false)
	if withLocality {
		p.addLocalityRow(m)
	}
	if !t.VertexTransitive() {
		// Without translation symmetry every pair is its own commodity and
		// the lazy trickle of pair rows makes the simplex grind through one
		// degenerate re-solve per round; at the small scales non-transitive
		// design runs at, writing LP (8)'s full pair-constraint block up
		// front is cheaper than generating it.
		for _, b := range blocks {
			for s := 0; s < p.n; s++ {
				for d := 0; d < p.n; d++ {
					if s == d {
						continue
					}
					m.AddRow(p.pairRowTerms(b, s, d), lp.LE, 0, "")
					b.added[s*p.n+d] = true
				}
			}
		}
	}
	p.model = m
	p.solver = lp.NewSolver(m)
	p.blocks = blocks
	return p
}

// maxRowsPerBlockRound caps how many lazy pair rows enter per block per
// round, trading round count against LP growth. violatedPairs proposes at
// most 2N rows; this cap keeps the very first rounds lean.
const maxRowsPerBlockRound = 128

// maxPathRowsPerBlockRound is the same cap for the path LPs, which grow
// every violated block each round and add a permutation cut only when no
// pair row is left (twoturn.go: PathLP.solveWC).
const maxPathRowsPerBlockRound = 48
