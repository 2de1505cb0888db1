package topo

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Mesh is a W x H two-dimensional mesh: the torus without wraparound.
// Nodes sit at (x, y) = (n mod W, n / W); channels connect orthogonal
// neighbors only, so border nodes have fewer ports than interior nodes and
// channel ids are compacted per node (ChanPort indexes the node's own port
// list, not a global direction table).
//
// The mesh is neither vertex- nor edge-transitive. Its automorphism group is
// the subgroup of B_2 (the square's symmetries, signedperm.go) fixing the
// bounding box — all 8 elements when W == H, the 4 axis reflections
// otherwise — acting about the mesh center (a reflection maps x to W-1-x
// rather than -x). The pair classes and channel orbits come from the
// generic exhaustive fold, and the translation subgroup is trivial: the
// folded LPs keep one commodity per ordered pair and the separation oracle
// walks every channel.
type Mesh struct {
	W, H int // dimensions, each >= 2
	N    int // number of nodes, W*H
	C    int // number of channels

	mmd float64

	// chanStart[n] is the first channel id of node n; chanStart[N] == C.
	chanStart []int
	// dirAt[c] is the direction of channel c; portOf[n*4+int(d)] is node n's
	// compact port index for direction d, or -1 when the border cuts it off.
	dirAt  []Dir
	portOf []int
	revOf  []Channel

	grp  *meshGroup
	tgrp *trivialGroup
}

func init() {
	RegisterFamily("mesh", func(spec string) (int, func() Topology, error) {
		ws, hs, ok := strings.Cut(spec, "x")
		if !ok {
			return 0, nil, fmt.Errorf("bad dimensions %q (want WxH, e.g. %q)", spec, "8x8")
		}
		w, errW := strconv.Atoi(ws)
		h, errH := strconv.Atoi(hs)
		if errW != nil || errH != nil || w < 2 || h < 2 {
			return 0, nil, fmt.Errorf("bad dimensions %q (want integers >= 2)", spec)
		}
		n, ok := mulCheck(w, h)
		if _, chOK := mulCheck(n, NumDirs); !ok || !chOK {
			return 0, nil, fmt.Errorf("mesh %dx%d too large", w, h)
		}
		return n, func() Topology { return NewMesh(w, h) }, nil
	})
}

// NewMesh constructs a W x H mesh; both dimensions must be at least 2.
func NewMesh(w, h int) *Mesh {
	if w < 2 || h < 2 {
		//lint:ignore libpanic construction-time misuse guard; Parse validates dimensions before reaching here
		panic(fmt.Sprintf("topo: mesh dimensions %dx%d < 2x2", w, h))
	}
	t := &Mesh{W: w, H: h, N: w * h}
	t.chanStart = make([]int, t.N+1)
	t.portOf = make([]int, t.N*NumDirs)
	for n := 0; n < t.N; n++ {
		t.chanStart[n] = len(t.dirAt)
		x, y := t.Coord(Node(n))
		for d := Dir(0); d < NumDirs; d++ {
			t.portOf[n*NumDirs+int(d)] = -1
			if t.inBounds(x, y, d) {
				t.portOf[n*NumDirs+int(d)] = len(t.dirAt) - t.chanStart[n]
				t.dirAt = append(t.dirAt, d)
			}
		}
	}
	t.C = len(t.dirAt)
	t.chanStart[t.N] = t.C
	t.revOf = make([]Channel, t.C)
	for c := 0; c < t.C; c++ {
		dst := t.ChanDst(Channel(c))
		t.revOf[c] = t.dirChan(dst, t.dirAt[c].Reverse())
	}
	// Mean minimal distance: E|x1-x2| + E|y1-y2| over independent uniform
	// coordinates.
	t.mmd = meanAbsDiff(w) + meanAbsDiff(h)
	t.grp = newMeshGroup(t)
	t.tgrp = &trivialGroup{t: t}
	return t
}

// meanAbsDiff returns E|a-b| for independent uniform a, b in [0, w), from
// sum_{a,b < w} |a-b| = (w-1)w(w+1)/3. Below 2^20 the sum is formed as an
// exact integer, so the result is bit-identical to summing every pair; the
// float form only serves sides whose cubed size would overflow.
func meanAbsDiff(w int) float64 {
	if w < 1<<20 {
		return float64((w-1)*w*(w+1)/3) / float64(w*w)
	}
	fw := float64(w)
	return (fw*fw - 1) / (3 * fw)
}

// inBounds reports whether moving from (x, y) in direction d stays on the
// mesh.
func (t *Mesh) inBounds(x, y int, d Dir) bool {
	dx, dy := d.Delta()
	nx, ny := x+dx, y+dy
	return nx >= 0 && nx < t.W && ny >= 0 && ny < t.H
}

// Coord returns the (x, y) coordinates of a node.
func (t *Mesh) Coord(n Node) (x, y int) { return int(n) % t.W, int(n) / t.W }

// NodeXY returns the node at coordinates (x, y); no reduction, coordinates
// must be on the mesh.
func (t *Mesh) NodeXY(x, y int) Node { return Node(y*t.W + x) }

// dirChan returns the channel leaving n in direction d; d must be in bounds.
func (t *Mesh) dirChan(n Node, d Dir) Channel {
	p := t.portOf[int(n)*NumDirs+int(d)]
	if p < 0 {
		//lint:ignore libpanic caller invariant: direction exits the mesh
		panic("topo: mesh channel off the edge")
	}
	return Channel(t.chanStart[n] + p)
}

// ChanDir returns a mesh channel's direction (exported for loadmap-style
// renderers that want geometric orientation rather than a port index).
func (t *Mesh) ChanDir(c Channel) Dir { return t.dirAt[c] }

// Topology interface.

func (t *Mesh) Family() string { return "mesh" }
func (t *Mesh) Spec() string   { return fmt.Sprintf("%dx%d", t.W, t.H) }
func (t *Mesh) Nodes() int     { return t.N }
func (t *Mesh) Chans() int     { return t.C }
func (t *Mesh) MaxDeg() int    { return NumDirs }

func (t *Mesh) OutDeg(n Node) int { return t.chanStart[n+1] - t.chanStart[n] }

func (t *Mesh) PortChan(n Node, p int) Channel { return Channel(t.chanStart[n] + p) }

func (t *Mesh) ChanPort(c Channel) int { return int(c) - t.chanStart[t.ChanSrc(c)] }

// ChanSrc finds the owning node by binary search over the channel-start
// table.
func (t *Mesh) ChanSrc(c Channel) Node {
	lo, hi := 0, t.N-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.chanStart[mid] <= int(c) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Node(lo)
}

func (t *Mesh) ChanDst(c Channel) Node {
	x, y := t.Coord(t.ChanSrc(c))
	dx, dy := t.dirAt[c].Delta()
	return t.NodeXY(x+dx, y+dy)
}

func (t *Mesh) ReverseChan(c Channel) Channel { return t.revOf[c] }

func (t *Mesh) MinDist(s, d Node) int {
	sx, sy := t.Coord(s)
	dx, dy := t.Coord(d)
	return abs(dx-sx) + abs(dy-sy)
}

func (t *Mesh) MeanMinDist() float64 { return t.mmd }

func (t *Mesh) VertexTransitive() bool { return false }

func (t *Mesh) RelNode(s, d Node) Node {
	//lint:ignore libpanic interface contract: RelNode is valid only for vertex-transitive families, and callers gate on VertexTransitive()
	panic("topo: mesh is not vertex-transitive")
}

func (t *Mesh) Group() AutGroup      { return t.grp }
func (t *Mesh) TransGroup() AutGroup { return t.tgrp }

// meshGroup is the B_2 subgroup fixing the bounding box, acting about the
// mesh center: all 8 square symmetries when W == H, otherwise the 4 elements
// without an axis swap. AutID indexes els, a list of B_2 elements in table
// order.
type meshGroup struct {
	t   *Mesh
	els []int

	once      sync.Once
	classes   []PairClass
	pairClass []int
	pairAut   []AutID
	chanReps  []Channel
}

func newMeshGroup(t *Mesh) *meshGroup {
	g := &meshGroup{t: t}
	for m := 0; m < b2.size(); m++ {
		if t.W == t.H || b2.perm[m][0] == 0 {
			g.els = append(g.els, m)
		}
	}
	return g
}

// applyCoord maps mesh coordinates through a B_2 element: the linear action
// with every negated output coordinate shifted back onto the grid (-x
// becomes W-1-x), i.e. reflection about the mesh center. Axis swaps are only
// admitted when W == H, so the x and y extents are exact after a swap.
func (g *meshGroup) applyCoord(m, x, y int) (int, int) {
	w := b2.apply(m, [3]int{x, y})
	if b2.sign[m]&1 != 0 {
		w[0] += g.t.W - 1
	}
	if b2.sign[m]&2 != 0 {
		w[1] += g.t.H - 1
	}
	return w[0], w[1]
}

func (g *meshGroup) Size() int         { return len(g.els) }
func (g *meshGroup) Identity() AutID   { return 0 }
func (g *meshGroup) Elements() []AutID { return idRange(len(g.els)) }

func (g *meshGroup) ApplyNode(a AutID, n Node) Node {
	x, y := g.t.Coord(n)
	nx, ny := g.applyCoord(g.els[a], x, y)
	return g.t.NodeXY(nx, ny)
}

func (g *meshGroup) ApplyChan(a AutID, c Channel) Channel {
	src := g.ApplyNode(a, g.t.ChanSrc(c))
	return g.t.dirChan(src, Dir(b2.port[g.els[a]][g.t.dirAt[c]]))
}

func (g *meshGroup) Compose(a, b AutID) AutID {
	return g.index(b2.compose[g.els[a]][g.els[b]])
}

func (g *meshGroup) Inverse(a AutID) AutID { return g.index(b2.inverse[g.els[a]]) }

// index returns the AutID of a B_2 element in els.
func (g *meshGroup) index(m int) AutID {
	for i, e := range g.els {
		if e == m {
			return AutID(i)
		}
	}
	//lint:ignore libpanic group invariant: the box-fixing subgroup is closed (covered by the conformance suite)
	panic("topo: mesh symmetry composition not closed")
}

// fold runs the generic exhaustive pair fold once.
func (g *meshGroup) fold() {
	g.once.Do(func() {
		g.classes, g.pairClass, g.pairAut = genPairClasses(g.t, g)
		g.chanReps = genChanOrbitReps(g.t, g)
	})
}

func (g *meshGroup) PairAut(s, d Node) (int, AutID) {
	if s == d {
		return -1, 0
	}
	g.fold()
	idx := int(s)*g.t.N + int(d)
	return g.pairClass[idx], g.pairAut[idx]
}

func (g *meshGroup) Classes() []PairClass {
	g.fold()
	return g.classes
}

func (g *meshGroup) ChanOrbitReps() []Channel {
	g.fold()
	return g.chanReps
}

// trivialGroup is the identity-only group, the translation "subgroup" of a
// family that is not vertex-transitive. Folding with it is a no-op: one
// class per ordered pair (source-major), one channel orbit per channel.
type trivialGroup struct {
	t Topology

	once    sync.Once
	classes []PairClass
}

func (g *trivialGroup) Size() int                            { return 1 }
func (g *trivialGroup) Identity() AutID                      { return 0 }
func (g *trivialGroup) Elements() []AutID                    { return []AutID{0} }
func (g *trivialGroup) ApplyNode(_ AutID, n Node) Node       { return n }
func (g *trivialGroup) ApplyChan(_ AutID, c Channel) Channel { return c }
func (g *trivialGroup) Compose(_, _ AutID) AutID             { return 0 }
func (g *trivialGroup) Inverse(_ AutID) AutID                { return 0 }

func (g *trivialGroup) PairAut(s, d Node) (int, AutID) {
	if s == d {
		return -1, 0
	}
	ci := int(s)*(g.t.Nodes()-1) + int(d)
	if d > s {
		ci--
	}
	return ci, 0
}

func (g *trivialGroup) Classes() []PairClass {
	g.once.Do(func() {
		n := g.t.Nodes()
		g.classes = make([]PairClass, 0, n*n-n)
		w := 1 / float64(n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				g.classes = append(g.classes, PairClass{
					Src:     Node(s),
					Dst:     Node(d),
					Weight:  w,
					MinDist: g.t.MinDist(Node(s), Node(d)),
				})
			}
		}
	})
	return g.classes
}

func (g *trivialGroup) ChanOrbitReps() []Channel {
	reps := make([]Channel, g.t.Chans())
	for c := range reps {
		reps[c] = Channel(c)
	}
	return reps
}

// abs is the integer absolute value.
func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
