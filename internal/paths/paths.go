// Package paths provides the path machinery that oblivious routing
// functions are built from: a hop-sequence path representation, minimal
// dimension-order path enumeration with even tie-splitting, the loop-removal
// transformation of Figure 3 (the insight behind IVAL), and exhaustive
// enumeration of the at-most-two-turn path space that defines the 2TURN and
// 2TURNA algorithms.
package paths

import (
	"fmt"
	"strings"

	"tcr/internal/topo"
)

// Path is a walk through a topology: a source node and a sequence of hops.
// Each hop is the port index taken at the node reached so far; on the torus
// families ports coincide with the Dir constants, so the historical
// direction-sequence reading still holds there, while on the mesh an entry
// indexes the node's compacted port list.
type Path struct {
	Src  topo.Node
	Dirs []topo.Dir
}

// Len returns the number of hops.
func (p Path) Len() int { return len(p.Dirs) }

// Dst returns the node the path terminates at.
func (p Path) Dst(t topo.Topology) topo.Node {
	n := p.Src
	for _, d := range p.Dirs {
		n = t.ChanDst(t.PortChan(n, int(d)))
	}
	return n
}

// Nodes returns the node sequence visited, including source and destination
// (length Len()+1).
func (p Path) Nodes(t topo.Topology) []topo.Node {
	nodes := make([]topo.Node, 0, len(p.Dirs)+1)
	n := p.Src
	nodes = append(nodes, n)
	for _, d := range p.Dirs {
		n = t.ChanDst(t.PortChan(n, int(d)))
		nodes = append(nodes, n)
	}
	return nodes
}

// Channels returns the channel sequence the path crosses.
func (p Path) Channels(t topo.Topology) []topo.Channel {
	chs := make([]topo.Channel, 0, len(p.Dirs))
	n := p.Src
	for _, d := range p.Dirs {
		c := t.PortChan(n, int(d))
		chs = append(chs, c)
		n = t.ChanDst(c)
	}
	return chs
}

// Turns counts dimension changes along the path (X<->Y transitions).
func (p Path) Turns() int {
	turns := 0
	for i := 1; i < len(p.Dirs); i++ {
		if p.Dirs[i].IsX() != p.Dirs[i-1].IsX() {
			turns++
		}
	}
	return turns
}

// HasUTurn reports whether the path ever moves in both directions of the
// same dimension.
func (p Path) HasUTurn() bool {
	var plusX, minusX, plusY, minusY bool
	for _, d := range p.Dirs {
		switch d {
		//lint:ignore dirliteral u-turns are defined on torus2d dimension runs; callers are the 2D path families
		case topo.XPlus:
			plusX = true
		//lint:ignore dirliteral u-turns are defined on torus2d dimension runs; callers are the 2D path families
		case topo.XMinus:
			minusX = true
		//lint:ignore dirliteral u-turns are defined on torus2d dimension runs; callers are the 2D path families
		case topo.YPlus:
			plusY = true
		//lint:ignore dirliteral u-turns are defined on torus2d dimension runs; callers are the 2D path families
		case topo.YMinus:
			minusY = true
		}
	}
	return (plusX && minusX) || (plusY && minusY)
}

// RevisitsChannel reports whether any channel appears twice; such paths are
// excluded from all routing functions (Section 2.2).
func (p Path) RevisitsChannel(t topo.Topology) bool {
	seen := make(map[topo.Channel]bool, len(p.Dirs))
	n := p.Src
	for _, d := range p.Dirs {
		c := t.PortChan(n, int(d))
		if seen[c] {
			return true
		}
		seen[c] = true
		n = t.ChanDst(c)
	}
	return false
}

// Concat joins two paths; q must start where p ends (callers guarantee it).
func Concat(p, q Path) Path {
	dirs := make([]topo.Dir, 0, len(p.Dirs)+len(q.Dirs))
	dirs = append(dirs, p.Dirs...)
	dirs = append(dirs, q.Dirs...)
	return Path{Src: p.Src, Dirs: dirs}
}

// String renders the path compactly for diagnostics.
func (p Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d:", int(p.Src))
	for _, d := range p.Dirs {
		b.WriteString(d.String())
	}
	return b.String()
}

// Key returns a map key identifying the path (source plus hop sequence).
func (p Path) Key() string { return p.String() }

// Weighted is a path with a probability mass in a routing distribution.
type Weighted struct {
	Path Path
	Prob float64
}

// RemoveLoops deletes every cycle from the walk: whenever a node is
// revisited, the hops between the two visits are spliced out. This is the
// transformation of Figure 3; it never increases the load on any channel
// (hops are only deleted), so applying it cannot reduce worst-case
// throughput while it strictly improves locality.
func RemoveLoops(t topo.Topology, p Path) Path {
	nodes := p.Nodes(t)
	// lastSeen[n] = index in the compacted node list.
	keptNodes := []topo.Node{nodes[0]}
	keptDirs := []topo.Dir{}
	pos := map[topo.Node]int{nodes[0]: 0}
	for i, d := range p.Dirs {
		next := nodes[i+1]
		if at, ok := pos[next]; ok {
			// Splice out the loop: drop everything after position `at`.
			for _, n := range keptNodes[at+1:] {
				delete(pos, n)
			}
			keptNodes = keptNodes[:at+1]
			keptDirs = keptDirs[:at]
			continue
		}
		keptDirs = append(keptDirs, d)
		keptNodes = append(keptNodes, next)
		pos[next] = len(keptNodes) - 1
	}
	return Path{Src: p.Src, Dirs: append([]topo.Dir(nil), keptDirs...)}
}

// dimTravel describes one way to cross a dimension: a direction and a total
// hop count (0 for no movement, up to k for a full ring).
type dimTravel struct {
	dir  topo.Dir
	hops int
}

// minimalTravels returns the minimal ways to cross a relative offset r in a
// ring of radix k along the given axis; ties (r == k-r) return both
// directions.
func minimalTravels(k, r int, plus, minus topo.Dir) []dimTravel {
	switch {
	case r == 0:
		return []dimTravel{{plus, 0}}
	case 2*r < k:
		return []dimTravel{{plus, r}}
	case 2*r > k:
		return []dimTravel{{minus, k - r}}
	default: // tie
		return []dimTravel{{plus, r}, {minus, k - r}}
	}
}

// singleTravels returns every way to cross a relative offset r with one
// segment of 1..k hops (k hops is a full ring, which touches every channel
// of the ring exactly once).
func singleTravels(k, r int, plus, minus topo.Dir) []dimTravel {
	var out []dimTravel
	if r != 0 {
		out = append(out, dimTravel{plus, r}, dimTravel{minus, k - r})
	} else {
		out = append(out, dimTravel{plus, k}, dimTravel{minus, k})
	}
	return out
}

// DORPaths enumerates the dimension-order minimal paths from s to d with
// their probabilities: one path normally, split evenly across directions
// when a dimension's offset is exactly half the radix (Table 1's DOR).
// xFirst selects the dimension traversal order.
func DORPaths(t *topo.Torus, s, d topo.Node, xFirst bool) []Weighted {
	rx, ry := t.Rel(s, d)
	//lint:ignore dirliteral DOR is a torus2d construction (Table 1)
	xOpts := minimalTravels(t.K, rx, topo.XPlus, topo.XMinus)
	//lint:ignore dirliteral DOR is a torus2d construction (Table 1)
	yOpts := minimalTravels(t.K, ry, topo.YPlus, topo.YMinus)
	out := make([]Weighted, 0, len(xOpts)*len(yOpts))
	prob := 1 / float64(len(xOpts)*len(yOpts))
	for _, xo := range xOpts {
		for _, yo := range yOpts {
			dirs := make([]topo.Dir, 0, xo.hops+yo.hops)
			if xFirst {
				dirs = appendRun(dirs, xo)
				dirs = appendRun(dirs, yo)
			} else {
				dirs = appendRun(dirs, yo)
				dirs = appendRun(dirs, xo)
			}
			out = append(out, Weighted{Path{Src: s, Dirs: dirs}, prob})
		}
	}
	return out
}

func appendRun(dirs []topo.Dir, tr dimTravel) []topo.Dir {
	for i := 0; i < tr.hops; i++ {
		dirs = append(dirs, tr.dir)
	}
	return dirs
}

// TwoTurnPaths enumerates every path from s to d with at most two turns and
// no u-turns, the path space of the 2TURN/2TURNA algorithms (Section 5.2).
// A u-turn is an immediate reversal within a dimension; the two
// same-dimension segments of an X-Y-X (or Y-X-Y) shape may run in opposite
// directions, which is what lets the family contain every IVAL path, as the
// paper requires. Paths that would revisit a channel are excluded, and each
// segment is at most one full ring.
func TwoTurnPaths(t *topo.Torus, s, d topo.Node) []Path {
	k := t.K
	rx, ry := t.Rel(s, d)
	var out []Path
	seen := make(map[string]bool)
	add := func(segs ...dimTravel) {
		var dirs []topo.Dir
		for _, sg := range segs {
			dirs = appendRun(dirs, sg)
		}
		p := Path{Src: s, Dirs: dirs}
		if p.Turns() > 2 || p.RevisitsChannel(t) {
			return
		}
		if key := p.Key(); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}

	if rx == 0 && ry == 0 {
		add() // the empty path
	}
	// Straight runs (the other dimension's offset must be zero).
	if ry == 0 {
		//lint:ignore dirliteral 2TURN's path family is a torus2d construction (Section 5.2)
		for _, xo := range singleTravels(k, rx, topo.XPlus, topo.XMinus) {
			add(xo)
		}
	}
	if rx == 0 {
		//lint:ignore dirliteral 2TURN's path family is a torus2d construction (Section 5.2)
		for _, yo := range singleTravels(k, ry, topo.YPlus, topo.YMinus) {
			add(yo)
		}
	}
	//lint:ignore dirliteral 2TURN's path family is a torus2d construction (Section 5.2)
	xSingles := singleTravels(k, rx, topo.XPlus, topo.XMinus)
	//lint:ignore dirliteral 2TURN's path family is a torus2d construction (Section 5.2)
	ySingles := singleTravels(k, ry, topo.YPlus, topo.YMinus)
	if rx != 0 || ry != 0 {
		// One turn: X then Y, Y then X (both offsets nonzero, or a
		// full-ring segment for the zero one).
		for _, xo := range xSingles {
			for _, yo := range ySingles {
				add(xo, yo)
				add(yo, xo)
			}
		}
	}
	// Two turns: X-Y-X with independent segment directions, net
	// displacement rx (mod k); the Y segment crosses ry in one run.
	for _, yo := range ySingles {
		for _, seg := range splitSegments(k, rx) {
			add(seg[0], yo, seg[1])
		}
	}
	// Y-X-Y symmetric.
	for _, xo := range xSingles {
		//lint:ignore dirliteral 2TURN's path family is a torus2d construction (Section 5.2)
		for _, seg := range splitSegmentsDirs(k, ry, topo.YPlus, topo.YMinus) {
			add(seg[0], xo, seg[1])
		}
	}
	return out
}

// splitSegments enumerates ordered pairs of x-dimension segments
// (each 1..k hops, either direction) whose net displacement is r mod k.
func splitSegments(k, r int) [][2]dimTravel {
	//lint:ignore dirliteral 2TURN's path family is a torus2d construction (Section 5.2)
	return splitSegmentsDirs(k, r, topo.XPlus, topo.XMinus)
}

// splitSegmentsDirs is splitSegments for an arbitrary dimension.
func splitSegmentsDirs(k, r int, plus, minus topo.Dir) [][2]dimTravel {
	var out [][2]dimTravel
	sign := func(d topo.Dir) int {
		if d == plus {
			return 1
		}
		return -1
	}
	for _, d1 := range []topo.Dir{plus, minus} {
		for _, d2 := range []topo.Dir{plus, minus} {
			for t1 := 1; t1 <= k; t1++ {
				// net = sign1*t1 + sign2*t2 == r (mod k), 1 <= t2 <= k.
				net := sign(d1)*t1 - r
				var t2 int
				if sign(d2) > 0 {
					t2 = mod(-net, k)
				} else {
					t2 = mod(net, k)
				}
				if t2 == 0 {
					t2 = k
				}
				out = append(out, [2]dimTravel{{d1, t1}, {d2, t2}})
			}
		}
	}
	return out
}

// mod is the arithmetic remainder in [0, k).
func mod(a, k int) int {
	a %= k
	if a < 0 {
		a += k
	}
	return a
}

// MinimalTwoTurnPaths restricts TwoTurnPaths to minimal-length paths, the
// path space used to show that ROMM is average-case optimal among simple
// minimal algorithms (Section 5.4).
func MinimalTwoTurnPaths(t *topo.Torus, s, d topo.Node) []Path {
	min := t.MinDist(s, d)
	all := TwoTurnPaths(t, s, d)
	out := all[:0]
	for _, p := range all {
		if p.Len() == min {
			out = append(out, p)
		}
	}
	return append([]Path(nil), out...)
}
