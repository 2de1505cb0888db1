package design

import (
	"fmt"
	"math"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
)

// DecomposeFlow recovers an explicit path-probability routing table from a
// per-commodity channel-flow table (Section 4: "given the flow variables
// from a solution of the reformulated problem, paths can easily be
// recovered"). For each flow row — a relative destination on
// vertex-transitive topologies, an ordered pair otherwise — it repeatedly
// walks positive-flow channels from the row's source, cancelling any cycles
// encountered and extracting source-to-destination paths at the bottleneck
// flow value, until the unit of source flow is fully decomposed. Residual
// flow cycles disconnected from the source (possible in degenerate LP
// solutions) are dropped, which can only shed channel load. When no flow
// path is left short of the full unit, a shortfall within the LP's
// conservation accuracy is renormalized away; a larger one is an error.
func DecomposeFlow(f *eval.Flow, label string) (*routing.Table, error) {
	t := f.T
	n := t.Nodes()
	if t.VertexTransitive() {
		dist := make(map[topo.Node][]paths.Weighted, n-1)
		for rel := 1; rel < n; rel++ {
			ws, err := decomposeRow(t, f.X[rel], 0, topo.Node(rel))
			if err != nil {
				return nil, err
			}
			dist[topo.Node(rel)] = ws
		}
		return &routing.Table{Label: label, Dist: dist}, nil
	}
	dist := make(map[topo.Node][]paths.Weighted, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			ws, err := decomposeRow(t, f.X[s*n+d], topo.Node(s), topo.Node(d))
			if err != nil {
				return nil, err
			}
			dist[topo.Node(s*n+d)] = ws
		}
	}
	return &routing.Table{Label: label, Dist: dist}, nil
}

// decomposeRow extracts one row's path distribution from its channel flows.
func decomposeRow(t topo.Topology, flow []float64, src, dst topo.Node) ([]paths.Weighted, error) {
	const tol = 1e-9
	x := make([]float64, t.Chans())
	copy(x, flow)
	var ws []paths.Weighted
	extracted := 0.0
	for iter := 0; extracted < 1-decompCoverTol; iter++ {
		if iter > 16*t.Chans() {
			return nil, fmt.Errorf("design: decomposition stuck for destination %d (extracted %v)", dst, extracted)
		}
		p, amount, isCycle := walk(t, x, src, dst, tol)
		if p == nil {
			// Each of the row's n flow-conservation constraints holds only
			// to the LP's feasibility tolerance, so together they can lose
			// up to n times it of the unit.
			if 1-extracted <= float64(t.Nodes())*lp.FeasTol {
				break
			}
			return nil, fmt.Errorf("design: no flow left for destination %d at %v extracted", dst, extracted)
		}
		for _, c := range p.Channels(t) {
			x[c] -= amount
			if x[c] < 0 {
				x[c] = 0
			}
		}
		if isCycle {
			continue
		}
		ws = append(ws, paths.Weighted{Path: *p, Prob: amount})
		extracted += amount
	}
	// Renormalize away the numeric shortfall.
	for i := range ws {
		ws[i].Prob /= extracted
	}
	return ws, nil
}

// walk follows maximum-flow outgoing channels from src until it reaches dst
// (returning the path and its bottleneck) or revisits a node (returning the
// cycle found, flagged isCycle). Returns nil when the source has no outgoing
// flow above tol.
func walk(t topo.Topology, x []float64, src, dst topo.Node, tol float64) (p *paths.Path, amount float64, isCycle bool) {
	type visit struct{ at int } // index into dirs where node was first seen
	cur := src
	var dirs []topo.Dir
	seen := map[topo.Node]visit{cur: {0}}
	bottleneck := math.Inf(1)
	for {
		// Largest-flow outgoing channel of cur.
		best, bestFlow := -1, tol
		for pt := 0; pt < t.OutDeg(cur); pt++ {
			if fl := x[t.PortChan(cur, pt)]; fl > bestFlow {
				best, bestFlow = pt, fl
			}
		}
		if best < 0 {
			if len(dirs) == 0 {
				return nil, 0, false
			}
			// Dead end before the destination: numerically broken flow.
			return nil, 0, false
		}
		if bestFlow < bottleneck {
			bottleneck = bestFlow
		}
		dirs = append(dirs, topo.Dir(best))
		cur = t.ChanDst(t.PortChan(cur, best))
		if cur == dst {
			return &paths.Path{Src: src, Dirs: dirs}, bottleneck, false
		}
		if v, ok := seen[cur]; ok {
			// Cycle: return just the looping segment, with its own
			// bottleneck.
			cyc := dirs[v.at:]
			cb := math.Inf(1)
			n := cur
			for _, d := range cyc {
				ch := t.PortChan(n, int(d))
				if fl := x[ch]; fl < cb {
					cb = fl
				}
				n = t.ChanDst(ch)
			}
			start := src
			for _, d := range dirs[:v.at] {
				start = t.ChanDst(t.PortChan(start, int(d)))
			}
			return &paths.Path{Src: start, Dirs: cyc}, cb, true
		}
		seen[cur] = visit{len(dirs)}
	}
}
