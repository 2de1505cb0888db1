// Package topo models the interconnection-network topologies of the paper
// and their symmetry: k-ary n-cubes for n = 2 and 3 (the two- and
// three-dimensional tori) and the 2D mesh, behind the Topology and AutGroup
// interfaces of topology.go.
//
// A k-ary n-cube has N = k^n nodes, each with 2n outgoing unit-bandwidth
// channels, C = 2nN in all. It is vertex- and edge-symmetric; its
// automorphism group (translations composed with the signed permutations of
// the axes, the dihedral group of the square when n = 2) is what Section 4
// of the paper exploits to shrink the optimization problems from O(C N^2)
// to O(C N). Torus is the 2D instance with the coordinate and direction
// helpers the routing algorithms use.
package topo

import "fmt"

// Node identifies a torus node in [0, N).
type Node int

// Channel identifies a directed channel in [0, C). The channel c belongs to
// source node c/4 and points in direction Dir(c%4).
type Channel int

// Dir is one of the four channel directions of a 2-cube.
type Dir int

const (
	// XPlus increases x by one (mod k).
	XPlus Dir = iota
	// XMinus decreases x by one (mod k).
	XMinus
	// YPlus increases y by one (mod k).
	YPlus
	// YMinus decreases y by one (mod k).
	YMinus
	// NumDirs is the number of channel directions per node.
	NumDirs = 4
)

// String names the direction.
func (d Dir) String() string {
	switch d {
	case XPlus:
		return "+x"
	case XMinus:
		return "-x"
	case YPlus:
		return "+y"
	case YMinus:
		return "-y"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Delta returns the coordinate step of the direction.
func (d Dir) Delta() (dx, dy int) {
	switch d {
	case XPlus:
		return 1, 0
	case XMinus:
		return -1, 0
	case YPlus:
		return 0, 1
	case YMinus:
		return 0, -1
	}
	//lint:ignore libpanic exhaustive switch over the Dir enum; reachable only via an invalid constant
	panic("topo: invalid direction")
}

// Reverse returns the opposite direction.
func (d Dir) Reverse() Dir {
	switch d {
	case XPlus:
		return XMinus
	case XMinus:
		return XPlus
	case YPlus:
		return YMinus
	case YMinus:
		return YPlus
	}
	//lint:ignore libpanic exhaustive switch over the Dir enum; reachable only via an invalid constant
	panic("topo: invalid direction")
}

// IsX reports whether the direction travels in the x dimension.
func (d Dir) IsX() bool { return d == XPlus || d == XMinus }

// Torus is a k-ary 2-cube with unit-bandwidth channels: node n sits at
// (x, y) = (n mod k, n / k), and channel c leaves node c/4 in direction
// Dir(c%4). The Topology methods and the K, N and C fields come from the
// shared k-ary n-cube.
type Torus struct {
	cube
}

// NewTorus constructs a k-ary 2-cube. k must be at least 2 (k = 2 tori have
// coincident +/- neighbors but remain well-defined as multigraphs here).
func NewTorus(k int) *Torus {
	t := &Torus{}
	t.init(2, k)
	return t
}

// Coord returns the (x, y) coordinates of a node.
func (t *Torus) Coord(n Node) (x, y int) {
	return int(n) % t.K, int(n) / t.K
}

// NodeAt returns the node at coordinates (x, y), reduced modulo k.
func (t *Torus) NodeAt(x, y int) Node {
	x = mod(x, t.K)
	y = mod(y, t.K)
	return Node(y*t.K + x)
}

// Chan returns the channel leaving node n in direction d.
func (t *Torus) Chan(n Node, d Dir) Channel {
	return Channel(int(n)*NumDirs + int(d))
}

// ChanDir returns a channel's direction.
func (t *Torus) ChanDir(c Channel) Dir { return Dir(int(c) % NumDirs) }

// Neighbor returns the node reached from n by moving one hop in direction d.
func (t *Torus) Neighbor(n Node, d Dir) Node {
	x, y := t.Coord(n)
	dx, dy := d.Delta()
	return t.NodeAt(x+dx, y+dy)
}

// Rel returns the relative coordinates of d as seen from s, each in [0, k).
func (t *Torus) Rel(s, d Node) (rx, ry int) {
	return t.Coord(t.RelNode(s, d))
}

// MinDist1D returns the minimal ring distance for a relative offset r,
// taken modulo k.
func (t *Torus) MinDist1D(r int) int { return t.ring(mod(r, t.K)) }

// mod is the arithmetic (always nonnegative) remainder.
func mod(a, k int) int {
	a %= k
	if a < 0 {
		a += k
	}
	return a
}
