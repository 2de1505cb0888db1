package topo

import (
	"fmt"
	"math"
	"strconv"
	"sync"
)

// cube is a k-ary n-cube for n = dims in {2, 3}: N = k^n nodes, node n at
// coordinates v[i] = n / k^i mod k, each with 2n outgoing unit-bandwidth
// channels. Port p steps axis p/2, forward when p is even, and channel
// c = node*2n + port. The torus2d family serves it through the Torus
// wrapper; torus3d uses it directly.
//
// Its automorphism group is the translations composed with B_n, the signed
// permutations of the axes (signedperm.go). The fundamental cone of the pair
// fold is 0 <= v[n-1] <= ... <= v[0] <= k/2.
type cube struct {
	K int // radix per dimension
	N int // number of nodes, k^dims
	C int // number of channels, 2*dims*N

	dims   int
	stride [3]int // k^i
	bn     *signedPerms
	// mmd caches MeanMinDist: it sits on the hot path of the
	// locality-normalized Pareto sweeps.
	mmd  float64
	grp  cubeGroup
	tgrp cubeTransGroup
}

func init() {
	for _, dims := range []int{2, 3} {
		RegisterFamily(fmt.Sprintf("torus%dd", dims), func(spec string) (int, func() Topology, error) {
			k, err := strconv.Atoi(spec)
			if err != nil || k < 2 {
				return 0, nil, fmt.Errorf("bad radix %q (want an integer >= 2)", spec)
			}
			n, ok := 1, true
			for i := 0; i < dims && ok; i++ {
				n, ok = mulCheck(n, k)
			}
			if _, chOK := mulCheck(n, 2*dims); !ok || !chOK {
				return 0, nil, fmt.Errorf("radix %d: %d-cube too large", k, dims)
			}
			if dims == 2 {
				return n, func() Topology { return NewTorus(k) }, nil
			}
			return n, func() Topology { return newCube(3, k) }, nil
		})
	}
}

// mulCheck returns a*b for nonnegative operands and whether it fits in an
// int.
func mulCheck(a, b int) (int, bool) {
	if b != 0 && a > math.MaxInt/b {
		return 0, false
	}
	return a * b, true
}

func newCube(dims, k int) *cube {
	q := &cube{}
	q.init(dims, k)
	return q
}

func (q *cube) init(dims, k int) {
	if k < 2 {
		//lint:ignore libpanic construction-time misuse guard; the CLI and Parse validate the radix before reaching here
		panic(fmt.Sprintf("topo: radix %d < 2", k))
	}
	q.K, q.dims = k, dims
	q.N = 1
	for i := 0; i < dims; i++ {
		q.stride[i] = q.N
		q.N *= k
	}
	q.C = 2 * dims * q.N
	q.bn = b2
	if dims == 3 {
		q.bn = b3
	}
	var total int
	for r := 0; r < k; r++ {
		total += q.ring(r)
	}
	// Sum over the dimensions of the per-dimension mean.
	q.mmd = float64(dims) * float64(total) / float64(k)
	q.grp.q = q
	q.tgrp.q = q
}

// ring is the minimal ring distance of an offset r in [0, k).
func (q *cube) ring(r int) int {
	if r > q.K-r {
		return q.K - r
	}
	return r
}

// coords returns a node's coordinates.
func (q *cube) coords(n Node) (v [3]int) {
	k := q.K
	v[0], v[1] = int(n)%k, int(n)/k
	if q.dims == 3 {
		v[1], v[2] = v[1]%k, v[1]/k
	}
	return v
}

// node returns the node at coordinates already reduced to [0, k).
func (q *cube) node(v [3]int) Node {
	return Node(v[0] + v[1]*q.stride[1] + v[2]*q.stride[2])
}

// split returns a channel's source node and port. It divides by the
// literal degree, not a runtime one: the compiler turns a constant divisor
// into a multiply, and every channel accessor goes through here.
func (q *cube) split(c Channel) (Node, int) {
	if q.dims == 2 {
		return Node(int(c) / 4), int(c) % 4
	}
	return Node(int(c) / 6), int(c) % 6
}

// add returns the node at the coordinate sum of a and b (mod k): the
// translation of a by b. Digits are added one by one with a single
// conditional wrap each.
func (q *cube) add(a, b Node) Node {
	k := q.K
	x := int(a)%k + int(b)%k
	if x >= k {
		x -= k
	}
	ya, yb := int(a)/k, int(b)/k
	if q.dims == 2 {
		y := ya + yb
		if y >= k {
			y -= k
		}
		return Node(y*k + x)
	}
	y := ya%k + yb%k
	if y >= k {
		y -= k
	}
	z := ya/k + yb/k
	if z >= k {
		z -= k
	}
	return Node((z*k+y)*k + x)
}

// neg returns the node at the negated coordinates of n (mod k).
func (q *cube) neg(n Node) Node {
	v := q.coords(n)
	for i := 0; i < q.dims; i++ {
		if v[i] != 0 {
			v[i] = q.K - v[i]
		}
	}
	return q.node(v)
}

// act returns M(n) + t (mod k) for B_n element m and translation node t:
// the image of n under the automorphism (m, t). The 2D case is written out,
// since the design layer maps every pair's channels through it.
func (q *cube) act(m int, t, n Node) Node {
	k := q.K
	p, s := &q.bn.perm[m], q.bn.sign[m]
	if q.dims == 2 {
		x, y := int(n)%k, int(n)/k
		if p[0] == 1 {
			x, y = y, x
		}
		if s&1 != 0 && x != 0 {
			x = k - x
		}
		if s&2 != 0 && y != 0 {
			y = k - y
		}
		if x += int(t) % k; x >= k {
			x -= k
		}
		if y += int(t) / k; y >= k {
			y -= k
		}
		return Node(y*k + x)
	}
	v, w := q.coords(n), q.coords(t)
	for i := 0; i < 3; i++ {
		x := v[p[i]]
		if s>>i&1 != 0 && x != 0 {
			x = k - x
		}
		if w[i] += x; w[i] >= k {
			w[i] -= k
		}
	}
	return q.node(w)
}

// Topology interface.

func (q *cube) Family() string {
	if q.dims == 2 {
		return "torus2d"
	}
	return "torus3d"
}

func (q *cube) Spec() string    { return strconv.Itoa(q.K) }
func (q *cube) Nodes() int      { return q.N }
func (q *cube) Chans() int      { return q.C }
func (q *cube) MaxDeg() int     { return 2 * q.dims }
func (q *cube) OutDeg(Node) int { return 2 * q.dims }

func (q *cube) PortChan(n Node, p int) Channel { return Channel(int(n)*2*q.dims + p) }

func (q *cube) ChanPort(c Channel) int {
	_, p := q.split(c)
	return p
}

func (q *cube) ChanSrc(c Channel) Node {
	n, _ := q.split(c)
	return n
}

func (q *cube) ChanDst(c Channel) Node {
	n, p := q.split(c)
	return q.step(n, p)
}

// step returns the neighbor of n through port p.
func (q *cube) step(n Node, p int) Node {
	k, st := q.K, q.stride[p/2]
	x := int(n) / st % k
	switch {
	case p&1 == 0 && x == k-1:
		return n - Node((k-1)*st)
	case p&1 == 0:
		return n + Node(st)
	case x == 0:
		return n + Node((k-1)*st)
	}
	return n - Node(st)
}

func (q *cube) ReverseChan(c Channel) Channel {
	n, p := q.split(c)
	return q.PortChan(q.step(n, p), p^1)
}

func (q *cube) MinDist(s, d Node) int {
	v := q.coords(q.RelNode(s, d))
	return q.ring(v[0]) + q.ring(v[1]) + q.ring(v[2])
}

// MeanMinDist returns the average minimal path length over all N^2
// source-destination pairs (self pairs contribute zero), the quantity used
// to normalize H_avg in the paper's figures.
func (q *cube) MeanMinDist() float64 { return q.mmd }

func (q *cube) VertexTransitive() bool { return true }

// RelNode returns the node at the offset of d from s, digit by digit.
func (q *cube) RelNode(s, d Node) Node {
	k := q.K
	x := int(d)%k - int(s)%k
	if x < 0 {
		x += k
	}
	sy, dy := int(s)/k, int(d)/k
	if q.dims == 2 {
		y := dy - sy
		if y < 0 {
			y += k
		}
		return Node(y*k + x)
	}
	y := dy%k - sy%k
	if y < 0 {
		y += k
	}
	z := dy/k - sy/k
	if z < 0 {
		z += k
	}
	return Node((z*k+y)*k + x)
}

// Group returns the full automorphism group (translations composed with
// B_n), whose pair classes are the cone commodities of Section 4.
func (q *cube) Group() AutGroup { return &q.grp }

// TransGroup returns the translation subgroup, whose pair classes are the
// N-1 relative destinations and whose channel-orbit representatives are the
// 2n channels at the origin.
func (q *cube) TransGroup() AutGroup { return &q.tgrp }

// cubeGroup is the full automorphism group: element m*N + t maps v to
// M(v) + t for B_n element m and translation node t.
type cubeGroup struct {
	q *cube

	once    sync.Once
	classes []PairClass
	// relM[r] is the first B_n element mapping offset node r into the cone,
	// relClass[r] the class of its image.
	relM     []int
	relClass []int
}

func (g *cubeGroup) Size() int       { return g.q.bn.size() * g.q.N }
func (g *cubeGroup) Identity() AutID { return 0 }
func (g *cubeGroup) Elements() []AutID {
	return idRange(g.Size())
}

// decode splits an element into its B_n part and translation.
func (g *cubeGroup) decode(a AutID) (int, Node) {
	return int(a) / g.q.N, Node(int(a) % g.q.N)
}

func (g *cubeGroup) encode(m int, t Node) AutID { return AutID(m*g.q.N + int(t)) }

func (g *cubeGroup) ApplyNode(a AutID, n Node) Node {
	m, t := g.decode(a)
	return g.q.act(m, t, n)
}

func (g *cubeGroup) ApplyChan(a AutID, c Channel) Channel {
	m, t := g.decode(a)
	n, p := g.q.split(c)
	return g.q.PortChan(g.q.act(m, t, n), g.q.bn.port[m][p])
}

func (g *cubeGroup) Compose(a, b AutID) AutID {
	// sigma_b(sigma_a(v)) = B(A(v) + s) + t = (B.A)(v) + B(s) + t.
	ma, s := g.decode(a)
	mb, t := g.decode(b)
	return g.encode(g.q.bn.compose[ma][mb], g.q.act(mb, t, s))
}

func (g *cubeGroup) Inverse(a AutID) AutID {
	// sigma^-1(v) = A^-1(v - s) = A^-1(v) - A^-1(s).
	m, s := g.decode(a)
	inv := g.q.bn.inverse[m]
	return g.encode(inv, g.q.neg(g.q.act(inv, 0, s)))
}

// fold canonicalizes every offset once and enumerates the cone classes with
// v[0] outermost and v[dims-1] innermost.
func (g *cubeGroup) fold() {
	g.once.Do(func() {
		q := g.q
		half := q.K / 2
		g.relM = make([]int, q.N)
		canon := make([]Node, q.N)
		for r := 1; r < q.N; r++ {
			for m := 0; m < q.bn.size(); m++ {
				img := q.act(m, 0, Node(r))
				if w := q.coords(img); w[0] <= half && w[1] <= w[0] && w[2] <= w[1] {
					g.relM[r], canon[r] = m, img
					break
				}
			}
		}
		classOf := make([]int, q.N)
		emit := func(v [3]int) {
			if v == [3]int{} {
				return
			}
			n := q.node(v)
			classOf[n] = len(g.classes)
			g.classes = append(g.classes, PairClass{Src: 0, Dst: n, MinDist: q.MinDist(0, n)})
		}
		for x := 0; x <= half; x++ {
			for y := 0; y <= x; y++ {
				if q.dims == 2 {
					emit([3]int{x, y})
					continue
				}
				for z := 0; z <= y; z++ {
					emit([3]int{x, y, z})
				}
			}
		}
		g.relClass = make([]int, q.N)
		for r := 1; r < q.N; r++ {
			ci := classOf[canon[r]]
			g.relClass[r] = ci
			g.classes[ci].Weight++
		}
	})
}

// PairAut returns sigma(v) = M(v - s) = M(v) - M(s), with M the first B_n
// element folding the pair's offset into the cone.
func (g *cubeGroup) PairAut(s, d Node) (int, AutID) {
	if s == d {
		return -1, 0
	}
	g.fold()
	r := g.q.RelNode(s, d)
	m := g.relM[r]
	return g.relClass[r], g.encode(m, g.q.neg(g.q.act(m, 0, s)))
}

func (g *cubeGroup) Classes() []PairClass {
	g.fold()
	return g.classes
}

// ChanOrbitReps returns channel 0 alone: translations move any node to the
// origin and B_n maps any port to any other, so the cube is
// edge-transitive.
func (g *cubeGroup) ChanOrbitReps() []Channel { return []Channel{0} }

// cubeTransGroup is the translation subgroup: element t translates by the
// offset of node t from the origin.
type cubeTransGroup struct {
	q *cube

	once    sync.Once
	classes []PairClass
}

func (g *cubeTransGroup) Size() int                      { return g.q.N }
func (g *cubeTransGroup) Identity() AutID                { return 0 }
func (g *cubeTransGroup) Elements() []AutID              { return idRange(g.q.N) }
func (g *cubeTransGroup) ApplyNode(a AutID, n Node) Node { return g.q.add(n, Node(a)) }
func (g *cubeTransGroup) Compose(a, b AutID) AutID       { return AutID(g.q.add(Node(a), Node(b))) }
func (g *cubeTransGroup) Inverse(a AutID) AutID          { return AutID(g.q.neg(Node(a))) }

func (g *cubeTransGroup) ApplyChan(a AutID, c Channel) Channel {
	n, p := g.q.split(c)
	return g.q.PortChan(g.q.add(n, Node(a)), p)
}

// PairAut maps (s, d) to (0, rel) by the translation -s; the class index is
// rel-1 (classes are the relative destinations 1..N-1 in node order).
func (g *cubeTransGroup) PairAut(s, d Node) (int, AutID) {
	if s == d {
		return -1, 0
	}
	return int(g.q.RelNode(s, d)) - 1, AutID(g.q.neg(s))
}

func (g *cubeTransGroup) Classes() []PairClass {
	g.once.Do(func() {
		g.classes = make([]PairClass, g.q.N-1)
		for rel := 1; rel < g.q.N; rel++ {
			g.classes[rel-1] = PairClass{Src: 0, Dst: Node(rel), Weight: 1, MinDist: g.q.MinDist(0, Node(rel))}
		}
	})
	return g.classes
}

// ChanOrbitReps returns the 2n channels at the origin, one per port.
func (g *cubeTransGroup) ChanOrbitReps() []Channel {
	reps := make([]Channel, 2*g.q.dims)
	for p := range reps {
		reps[p] = Channel(p)
	}
	return reps
}

// idRange returns the elements 0..n-1.
func idRange(n int) []AutID {
	els := make([]AutID, n)
	for i := range els {
		els[i] = AutID(i)
	}
	return els
}
