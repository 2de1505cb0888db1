// Package routing implements the oblivious routing algorithms studied in
// the paper (Table 1 plus the new IVAL, 2TURN, 2TURNA and interpolated
// algorithms) behind a single abstraction: a routing algorithm is a
// probability distribution over paths for every source-destination pair.
//
// All algorithms here are translation-invariant on the torus (the
// distribution for (s, d) is the translated distribution of (0, d-s)), which
// the evaluation and optimization code exploits; TestTranslationInvariance
// enforces it for every implementation.
package routing

import (
	"fmt"
	"math/rand"
	"sort"

	"tcr/internal/paths"
	"tcr/internal/topo"
)

// Algorithm is a randomized oblivious routing algorithm: for each pair it
// defines a finite probability distribution over paths. Implementations
// must return distributions whose probabilities sum to one; on
// vertex-transitive topologies they must also be translation-invariant.
type Algorithm interface {
	// Name is a short identifier ("DOR", "IVAL", ...).
	Name() string
	// PairPaths returns the path distribution for source s and
	// destination d on the topology t. The closed-form algorithms of
	// Table 1 are defined on the 2D torus only and panic on other
	// families; LP-designed Tables work on any topology.
	PairPaths(t topo.Topology, s, d topo.Node) []paths.Weighted
}

// torus2d asserts that a topology is the k-ary 2-cube the closed-form
// algorithms are defined on.
func torus2d(t topo.Topology, alg string) *topo.Torus {
	tt, ok := t.(*topo.Torus)
	if !ok {
		//lint:ignore libpanic interface misuse guard: Table 1's closed-form algorithms are 2D-torus constructions, and callers gate on the family before dispatching
		panic("routing: " + alg + " is defined on torus2d only, got " + topo.String(t))
	}
	return tt
}

// merge combines duplicate paths in a weighted list, summing probability.
func merge(ws []paths.Weighted) []paths.Weighted {
	idx := make(map[string]int, len(ws))
	out := ws[:0]
	for _, w := range ws {
		//lint:ignore floatcmp sparsity skip: exactly-zero probabilities carry no path
		if w.Prob == 0 {
			continue
		}
		k := w.Path.Key()
		if i, ok := idx[k]; ok {
			out[i].Prob += w.Prob
			continue
		}
		idx[k] = len(out)
		out = append(out, w)
	}
	res := make([]paths.Weighted, len(out))
	copy(res, out)
	return res
}

// DOR is deterministic dimension-order routing: minimal in X first then Y
// (or Y first), splitting evenly when both directions of a dimension are
// minimal.
type DOR struct {
	YFirst bool
}

// Name implements Algorithm.
func (a DOR) Name() string {
	if a.YFirst {
		return "DOR-yx"
	}
	return "DOR"
}

// PairPaths implements Algorithm.
func (a DOR) PairPaths(t topo.Topology, s, d topo.Node) []paths.Weighted {
	return paths.DORPaths(torus2d(t, a.Name()), s, d, !a.YFirst)
}

// VAL is Valiant's randomized algorithm: route minimally (DOR x-first) to a
// uniformly random intermediate node, then minimally on to the destination.
// Loops between phases are kept, matching the original algorithm whose
// average path length is exactly twice minimal.
type VAL struct{}

// Name implements Algorithm.
func (VAL) Name() string { return "VAL" }

// PairPaths implements Algorithm.
func (VAL) PairPaths(t topo.Topology, s, d topo.Node) []paths.Weighted {
	return twoPhase(torus2d(t, "VAL"), s, d, false, false, false)
}

// IVAL is the paper's improved Valiant (Section 5.2): phase one routes
// x-first to the random intermediate, phase two routes y-first, and loops in
// the concatenated path are removed. Reversing the dimension order between
// phases maximizes loop formation, and removing loops only sheds channel
// load, so IVAL keeps VAL's optimal worst-case throughput at an average path
// length of roughly 1.61x minimal on the 8-ary 2-cube.
type IVAL struct{}

// Name implements Algorithm.
func (IVAL) Name() string { return "IVAL" }

// PairPaths implements Algorithm.
func (IVAL) PairPaths(t topo.Topology, s, d topo.Node) []paths.Weighted {
	return twoPhase(torus2d(t, "IVAL"), s, d, false, true, true)
}

// twoPhase enumerates the path distribution of a two-phase randomized
// algorithm with a uniformly random intermediate: phase one uses DOR with
// the given dimension order, phase two likewise, optionally removing loops
// from the concatenation.
func twoPhase(t *topo.Torus, s, d topo.Node, phase1YFirst, phase2YFirst, removeLoops bool) []paths.Weighted {
	out := make([]paths.Weighted, 0, t.N*4)
	pInt := 1 / float64(t.N)
	for i := topo.Node(0); i < topo.Node(t.N); i++ {
		first := paths.DORPaths(t, s, i, !phase1YFirst)
		second := paths.DORPaths(t, i, d, !phase2YFirst)
		for _, p1 := range first {
			for _, p2 := range second {
				p := paths.Concat(p1.Path, p2.Path)
				if removeLoops {
					p = paths.RemoveLoops(t, p)
				}
				out = append(out, paths.Weighted{Path: p, Prob: pInt * p1.Prob * p2.Prob})
			}
		}
	}
	return merge(out)
}

// ROMM is two-phase randomized minimal routing: the intermediate is chosen
// uniformly from the minimal quadrant (so every path stays minimal), with
// DOR for both phases. Ties in a dimension pick either quadrant direction
// with equal probability.
type ROMM struct{}

// Name implements Algorithm.
func (ROMM) Name() string { return "ROMM" }

// PairPaths implements Algorithm.
func (ROMM) PairPaths(tp topo.Topology, s, d topo.Node) []paths.Weighted {
	t := torus2d(tp, "ROMM")
	rx, ry := t.Rel(s, d)
	//lint:ignore dirliteral ROMM is a torus2d construction (Table 1)
	xDirs := minimalDirChoices(t.K, rx, topo.XPlus, topo.XMinus)
	//lint:ignore dirliteral ROMM is a torus2d construction (Table 1)
	yDirs := minimalDirChoices(t.K, ry, topo.YPlus, topo.YMinus)
	var out []paths.Weighted
	pQuad := 1 / float64(len(xDirs)*len(yDirs))
	for _, xd := range xDirs {
		for _, yd := range yDirs {
			quadProb := pQuad / float64((xd.hops+1)*(yd.hops+1))
			sx, sy := t.Coord(s)
			dxu, dyu := xd.dir.Delta()
			dxv, dyv := yd.dir.Delta()
			for ax := 0; ax <= xd.hops; ax++ {
				for ay := 0; ay <= yd.hops; ay++ {
					ix := sx + ax*dxu + ay*dxv
					iy := sy + ax*dyu + ay*dyv
					i := t.NodeAt(ix, iy)
					// Both phases stay within the chosen quadrant, so plain
					// x-first DOR is already direction-consistent except at
					// ties, where we force the quadrant direction.
					p1 := forcedDOR(t, s, i, xd.dir, yd.dir)
					p2 := forcedDOR(t, i, d, xd.dir, yd.dir)
					p := paths.Concat(p1, p2)
					out = append(out, paths.Weighted{Path: p, Prob: quadProb})
				}
			}
		}
	}
	return merge(out)
}

// dirChoice pairs a direction with the hop count needed in it.
type dirChoice struct {
	dir  topo.Dir
	hops int
}

// minimalDirChoices lists the minimal direction(s) for a relative offset.
func minimalDirChoices(k, r int, plus, minus topo.Dir) []dirChoice {
	switch {
	case r == 0:
		return []dirChoice{{plus, 0}}
	case 2*r < k:
		return []dirChoice{{plus, r}}
	case 2*r > k:
		return []dirChoice{{minus, k - r}}
	default:
		return []dirChoice{{plus, r}, {minus, k - r}}
	}
}

// forcedDOR builds the x-first dimension-order path from s to d that only
// uses the given per-dimension directions. The offsets of (s, d) must be
// reachable in those directions; callers arrange this by construction.
func forcedDOR(t *topo.Torus, s, d topo.Node, xDir, yDir topo.Dir) paths.Path {
	rx, ry := t.Rel(s, d)
	xh := hopsInDir(t.K, rx, xDir)
	yh := hopsInDir(t.K, ry, yDir)
	dirs := make([]topo.Dir, 0, xh+yh)
	for i := 0; i < xh; i++ {
		dirs = append(dirs, xDir)
	}
	for i := 0; i < yh; i++ {
		dirs = append(dirs, yDir)
	}
	return paths.Path{Src: s, Dirs: dirs}
}

// hopsInDir returns how many hops cover a relative offset r when moving
// only in direction d.
func hopsInDir(k, r int, d topo.Dir) int {
	dx, dy := d.Delta()
	step := dx + dy // +1 or -1
	if step > 0 {
		return r % k
	}
	return (k - r) % k
}

// RLB is randomized local balance (Table 1, from Singh et al. SPAA'02): in
// each dimension the packet routes minimally with probability (k-Delta)/k,
// otherwise the long way around; an intermediate node is drawn uniformly
// from the quadrant spanned by the chosen directions and DOR is used for
// both phases, confined to those directions.
type RLB struct {
	// Threshold enables the RLBth variant: dimensions with Delta < k/4
	// always route minimally.
	Threshold bool
}

// Name implements Algorithm.
func (a RLB) Name() string {
	if a.Threshold {
		return "RLBth"
	}
	return "RLB"
}

// PairPaths implements Algorithm.
func (a RLB) PairPaths(tp topo.Topology, s, d topo.Node) []paths.Weighted {
	t := torus2d(tp, a.Name())
	rx, ry := t.Rel(s, d)
	//lint:ignore dirliteral RLB is a torus2d construction (Table 1)
	xCh := a.dirProbs(t.K, rx, topo.XPlus, topo.XMinus)
	//lint:ignore dirliteral RLB is a torus2d construction (Table 1)
	yCh := a.dirProbs(t.K, ry, topo.YPlus, topo.YMinus)
	var out []paths.Weighted
	for _, xc := range xCh {
		for _, yc := range yCh {
			quadProb := xc.prob * yc.prob / float64((xc.hops+1)*(yc.hops+1))
			//lint:ignore floatcmp exact-zero factor from dirProbs (no rounding involved)
			if quadProb == 0 {
				continue
			}
			sx, sy := t.Coord(s)
			dxu, dyu := xc.dir.Delta()
			for ax := 0; ax <= xc.hops; ax++ {
				for ay := 0; ay <= yc.hops; ay++ {
					dxv, dyv := yc.dir.Delta()
					i := t.NodeAt(sx+ax*dxu+ay*dxv, sy+ax*dyu+ay*dyv)
					p1 := forcedDOR(t, s, i, xc.dir, yc.dir)
					p2 := forcedDOR(t, i, d, xc.dir, yc.dir)
					out = append(out, paths.Weighted{
						Path: paths.Concat(p1, p2),
						Prob: quadProb,
					})
				}
			}
		}
	}
	return merge(out)
}

// weightedDir is a direction choice with probability mass and hop count.
type weightedDir struct {
	dir  topo.Dir
	hops int
	prob float64
}

// dirProbs returns RLB's per-dimension direction distribution.
func (a RLB) dirProbs(k, r int, plus, minus topo.Dir) []weightedDir {
	if r == 0 {
		return []weightedDir{{plus, 0, 1}}
	}
	delta := r
	minDir, maxDir := plus, minus
	if 2*r > k {
		delta = k - r
		minDir, maxDir = minus, plus
	}
	pMin := float64(k-delta) / float64(k)
	if a.Threshold && 4*delta < k {
		pMin = 1
	}
	minHops, maxHops := delta, k-delta
	if 2*r == k {
		// Tie: both directions are minimal; split evenly.
		return []weightedDir{{plus, r, 0.5}, {minus, k - r, 0.5}}
	}
	return []weightedDir{{minDir, minHops, pMin}, {maxDir, maxHops, 1 - pMin}}
}

// Table is a routing algorithm given extensionally. On vertex-transitive
// topologies it stores a path distribution per relative destination from the
// canonical source (node 0), extended to all pairs by translation; on other
// topologies it stores one distribution per ordered pair. LP-designed
// algorithms (2TURN, 2TURNA, the optimal tradeoff points) are Tables
// produced by flow decomposition.
type Table struct {
	// Label names the algorithm ("2TURN", "wc-opt(L=1.5)", ...).
	Label string
	// Dist is keyed by commodity row: the relative destination on
	// vertex-transitive topologies (paths start at node 0), the pair index
	// s*N+d otherwise (paths start at s). Missing or empty entries mean
	// "no paths", which is only valid for self pairs.
	Dist map[topo.Node][]paths.Weighted
}

// Name implements Algorithm.
func (a *Table) Name() string { return a.Label }

// PairPaths implements Algorithm. On vertex-transitive topologies the
// stored source-0 paths are shifted by substituting the source: translations
// fix every port index, so the hop sequence carries over unchanged.
func (a *Table) PairPaths(t topo.Topology, s, d topo.Node) []paths.Weighted {
	if !t.VertexTransitive() {
		base := a.Dist[topo.Node(int(s)*t.Nodes()+int(d))]
		if len(base) == 0 {
			return []paths.Weighted{{Path: paths.Path{Src: s}, Prob: 1}}
		}
		return base
	}
	base := a.Dist[t.RelNode(s, d)]
	if len(base) == 0 {
		// Self pair: the empty path.
		return []paths.Weighted{{Path: paths.Path{Src: s}, Prob: 1}}
	}
	out := make([]paths.Weighted, len(base))
	for i, w := range base {
		out[i] = paths.Weighted{Path: paths.Path{Src: s, Dirs: w.Path.Dirs}, Prob: w.Prob}
	}
	return out
}

// Interpolated mixes two algorithms (Section 5.3): route with A with
// probability Alpha, otherwise with B. Locality interpolates linearly and
// worst-case channel load is bounded by the convex combination.
type Interpolated struct {
	A, B  Algorithm
	Alpha float64
}

// Name implements Algorithm.
func (a Interpolated) Name() string {
	return fmt.Sprintf("%.2f*%s+%.2f*%s", a.Alpha, a.A.Name(), 1-a.Alpha, a.B.Name())
}

// PairPaths implements Algorithm.
func (a Interpolated) PairPaths(t topo.Topology, s, d topo.Node) []paths.Weighted {
	first := a.A.PairPaths(t, s, d)
	second := a.B.PairPaths(t, s, d)
	out := make([]paths.Weighted, 0, len(first)+len(second))
	for _, w := range first {
		out = append(out, paths.Weighted{Path: w.Path, Prob: a.Alpha * w.Prob})
	}
	for _, w := range second {
		out = append(out, paths.Weighted{Path: w.Path, Prob: (1 - a.Alpha) * w.Prob})
	}
	return merge(out)
}

// SamplePath draws one path from an algorithm's distribution for (s, d);
// the sampling entry point used by the flit-level simulator.
func SamplePath(rng *rand.Rand, alg Algorithm, t topo.Topology, s, d topo.Node) paths.Path {
	ws := alg.PairPaths(t, s, d)
	u := rng.Float64()
	var acc float64
	for _, w := range ws {
		acc += w.Prob
		if u < acc {
			return w.Path
		}
	}
	return ws[len(ws)-1].Path
}

// Sampler precomputes cumulative path distributions so the simulator can
// draw paths in O(log paths) without re-enumerating: one table per relative
// destination on vertex-transitive topologies, one per ordered pair
// otherwise. The tables are never written after NewSampler returns, so a
// Sampler is safe for concurrent use: any number of goroutines may call
// Sample (each with its own rand.Rand) and MaxLen at once.
type Sampler struct {
	t    topo.Topology
	alg  Algorithm
	cum  map[topo.Node][]float64
	pths map[topo.Node][]paths.Path
}

// NewSampler builds the sampling tables for every commodity.
func NewSampler(t topo.Topology, alg Algorithm) *Sampler {
	n := t.Nodes()
	s := &Sampler{
		t:    t,
		alg:  alg,
		cum:  make(map[topo.Node][]float64, n),
		pths: make(map[topo.Node][]paths.Path, n),
	}
	add := func(key topo.Node, ws []paths.Weighted) {
		cum := make([]float64, len(ws))
		ps := make([]paths.Path, len(ws))
		var acc float64
		for i, w := range ws {
			acc += w.Prob
			cum[i] = acc
			ps[i] = w.Path
		}
		s.cum[key] = cum
		s.pths[key] = ps
	}
	if t.VertexTransitive() {
		for rel := topo.Node(0); rel < topo.Node(n); rel++ {
			add(rel, alg.PairPaths(t, 0, rel))
		}
		return s
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			add(topo.Node(src*n+dst), alg.PairPaths(t, topo.Node(src), topo.Node(dst)))
		}
	}
	return s
}

// MaxLen returns the longest path length across all sampling tables; the
// simulator's hop-class virtual-channel policy sizes its class count by it.
func (sp *Sampler) MaxLen() int {
	var max int
	for _, ps := range sp.pths {
		for _, p := range ps {
			if p.Len() > max {
				max = p.Len()
			}
		}
	}
	return max
}

// Sample draws a path from s to d.
func (sp *Sampler) Sample(rng *rand.Rand, s, d topo.Node) paths.Path {
	key := s
	if sp.t.VertexTransitive() {
		key = sp.t.RelNode(s, d)
	} else {
		if s == d {
			return paths.Path{Src: s}
		}
		key = topo.Node(int(s)*sp.t.Nodes() + int(d))
	}
	cum := sp.cum[key]
	ps := sp.pths[key]
	u := rng.Float64() * cum[len(cum)-1]
	i := sort.SearchFloat64s(cum, u)
	if i >= len(ps) {
		i = len(ps) - 1
	}
	if sp.t.VertexTransitive() {
		// Translations fix port indices, so shifting a source-0 path is a
		// source substitution.
		return paths.Path{Src: s, Dirs: ps[i].Dirs}
	}
	return ps[i]
}
