package topo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoordRoundTrip(t *testing.T) {
	tor := NewTorus(5)
	for n := Node(0); n < Node(tor.N); n++ {
		x, y := tor.Coord(n)
		if tor.NodeAt(x, y) != n {
			t.Fatalf("node %d -> (%d,%d) -> %d", n, x, y, tor.NodeAt(x, y))
		}
	}
}

func TestNeighborWraps(t *testing.T) {
	tor := NewTorus(4)
	n := tor.NodeAt(3, 0)
	if got := tor.Neighbor(n, XPlus); got != tor.NodeAt(0, 0) {
		t.Fatalf("wrap +x: got %d", got)
	}
	if got := tor.Neighbor(tor.NodeAt(0, 0), YMinus); got != tor.NodeAt(0, 3) {
		t.Fatalf("wrap -y: got %d", got)
	}
}

func TestChannelEncoding(t *testing.T) {
	tor := NewTorus(6)
	for n := Node(0); n < Node(tor.N); n++ {
		for d := Dir(0); d < NumDirs; d++ {
			c := tor.Chan(n, d)
			if tor.ChanSrc(c) != n || tor.ChanDir(c) != d {
				t.Fatalf("channel encode/decode mismatch at %d/%v", n, d)
			}
			if tor.ChanDst(c) != tor.Neighbor(n, d) {
				t.Fatalf("channel dst mismatch at %d/%v", n, d)
			}
		}
	}
}

func TestMinDist(t *testing.T) {
	tor := NewTorus(8)
	cases := []struct {
		sx, sy, dx, dy, want int
	}{
		{0, 0, 0, 0, 0},
		{0, 0, 1, 0, 1},
		{0, 0, 7, 0, 1},
		{0, 0, 4, 0, 4},
		{0, 0, 4, 4, 8},
		{2, 3, 7, 1, 5}, // dx: 2->7 is 3 backwards; dy: 3->1 is 2
	}
	for _, c := range cases {
		got := tor.MinDist(tor.NodeAt(c.sx, c.sy), tor.NodeAt(c.dx, c.dy))
		if got != c.want {
			t.Errorf("MinDist (%d,%d)->(%d,%d) = %d, want %d", c.sx, c.sy, c.dx, c.dy, got, c.want)
		}
	}
}

func TestMeanMinDist(t *testing.T) {
	// k=8: per-dimension mean over offsets {0,1,2,3,4,3,2,1} = 2; two dims = 4.
	if got := NewTorus(8).MeanMinDist(); got != 4 {
		t.Fatalf("k=8 mean = %v, want 4", got)
	}
	// k=5: per-dim {0,1,2,2,1} mean = 6/5; total 12/5.
	if got := NewTorus(5).MeanMinDist(); got != 2.4 {
		t.Fatalf("k=5 mean = %v, want 2.4", got)
	}
}

// cubeOf returns the k-ary n-cube behind a torus topology.
func cubeOf(tp Topology) *cube {
	if t, ok := tp.(*Torus); ok {
		return &t.cube
	}
	return tp.(*cube)
}

// cubeInstances returns the tori the folding tests run on: torus2d k = 4, 5
// and 8 and torus3d k = 3 and 4.
func cubeInstances(t *testing.T) []*cube {
	var out []*cube
	for _, spec := range []string{"torus2d:4", "torus2d:5", "torus2d:8", "torus3d:3", "torus3d:4"} {
		tp, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cubeOf(tp))
	}
	return out
}

// inCone reports whether an offset lies in the fundamental cone
// 0 <= v[n-1] <= ... <= v[0] <= k/2.
func (q *cube) inCone(n Node) bool {
	v := q.coords(n)
	for i := 1; i < q.dims; i++ {
		if v[i] > v[i-1] {
			return false
		}
	}
	return v[0] <= q.K/2
}

// TestDihedralGroupAxioms checks the B_2 and B_3 tables: the elements act
// distinctly, composition matches the action, inverses are two-sided, and
// B_2 lists the square's symmetries in the historical dihedral order.
func TestDihedralGroupAxioms(t *testing.T) {
	wantB2 := [][2]int{{2, 1}, {1, 2}, {-2, 1}, {2, -1}, {-2, -1}, {-1, 2}, {1, -2}, {-1, -2}}
	for m, want := range wantB2 {
		if w := b2.apply(m, [3]int{2, 1}); [2]int{w[0], w[1]} != want {
			t.Fatalf("B2 element %d maps (2,1) to %v, want %v", m, w, want)
		}
	}
	for _, g := range []*signedPerms{b2, b3} {
		probe := [3]int{3, 2, 1}
		seen := map[[3]int]bool{}
		for a := 0; a < g.size(); a++ {
			w := g.apply(a, probe)
			if seen[w] {
				t.Fatalf("B%d elements collide on %v: %v", g.dims, probe, w)
			}
			seen[w] = true
			if inv := g.inverse[a]; g.compose[a][inv] != 0 || g.compose[inv][a] != 0 {
				t.Fatalf("B%d inverse of %d broken", g.dims, a)
			}
			for b := 0; b < g.size(); b++ {
				if g.apply(g.compose[a][b], probe) != g.apply(b, g.apply(a, probe)) {
					t.Fatalf("B%d compose(%d, %d) does not act as first a, then b", g.dims, a, b)
				}
			}
		}
	}
	if b3.size() != 48 || b3.perm[8] != [3]int{0, 2, 1} || b3.sign[9] != 1 {
		t.Fatal("B3 must enumerate the lexicographic axis permutations times the sign patterns")
	}
}

func TestDihedralDirAction(t *testing.T) {
	const swap, negX = 1, 2
	if Dir(b2.port[swap][XPlus]) != YPlus {
		t.Error("swap should map +x to +y")
	}
	if Dir(b2.port[negX][XPlus]) != XMinus {
		t.Error("negx should map +x to -x")
	}
	if Dir(b2.port[negX][YPlus]) != YPlus {
		t.Error("negx should fix +y")
	}
}

func TestAutomorphismPreservesAdjacency(t *testing.T) {
	tor := NewTorus(6)
	g := tor.Group()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := AutID(rng.Intn(g.Size()))
		n := Node(rng.Intn(tor.N))
		d := Dir(rng.Intn(NumDirs))
		// sigma(neighbor(n, d)) == neighbor(sigma(n), M(d)), where M(d) is
		// the direction of the image of n's d channel.
		lhs := g.ApplyNode(a, tor.Neighbor(n, d))
		rhs := tor.Neighbor(g.ApplyNode(a, n), tor.ChanDir(g.ApplyChan(a, tor.Chan(n, d))))
		if lhs != rhs {
			t.Fatalf("automorphism %d breaks adjacency at node %d dir %v", a, n, d)
		}
	}
}

func TestApplyChanConsistent(t *testing.T) {
	tor := NewTorus(5)
	g := tor.Group()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		a := AutID(rng.Intn(g.Size()))
		c := Channel(rng.Intn(tor.C))
		img := g.ApplyChan(a, c)
		if tor.ChanSrc(img) != g.ApplyNode(a, tor.ChanSrc(c)) {
			t.Fatal("channel image source mismatch")
		}
		if tor.ChanDst(img) != g.ApplyNode(a, tor.ChanDst(c)) {
			t.Fatal("channel image destination mismatch")
		}
	}
}

// TestPairAutCanonicalizes checks that the full group folds every ordered
// pair onto a class whose representative is (0, cone offset), through an
// automorphism that preserves distance.
func TestPairAutCanonicalizes(t *testing.T) {
	for _, q := range cubeInstances(t) {
		g := q.Group()
		classes := g.Classes()
		for s := Node(0); s < Node(q.N); s++ {
			for d := Node(0); d < Node(q.N); d++ {
				if s == d {
					continue
				}
				ci, a := g.PairAut(s, d)
				rep := classes[ci].Dst
				if classes[ci].Src != 0 || g.ApplyNode(a, s) != 0 {
					t.Fatalf("%s: sigma(s) != 0 for pair (%d,%d)", String(q), s, d)
				}
				if got := g.ApplyNode(a, d); got != rep {
					t.Fatalf("%s: sigma(d) = %d, want class rep %d", String(q), got, rep)
				}
				if !q.inCone(rep) {
					t.Fatalf("%s: class rep %v outside the cone", String(q), q.coords(rep))
				}
				if q.MinDist(s, d) != q.MinDist(0, rep) {
					t.Fatalf("%s: automorphism changed distance for (%d,%d)", String(q), s, d)
				}
			}
		}
	}
}

// TestOctantDestsOrbitsSumToN1 checks that the full group's class weights
// (offsets per source folding onto each cone commodity) sum to N-1.
func TestOctantDestsOrbitsSumToN1(t *testing.T) {
	specs := []string{"torus2d:3", "torus2d:4", "torus2d:5", "torus2d:6", "torus2d:8", "torus2d:9", "torus3d:3", "torus3d:4"}
	for _, spec := range specs {
		tp, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, cl := range tp.Group().Classes() {
			if cl.Weight != math.Trunc(cl.Weight) || cl.Weight < 1 {
				t.Fatalf("%s: class weight %v is not a positive integer", spec, cl.Weight)
			}
			sum += cl.Weight
		}
		if want := float64(tp.Nodes() - 1); sum != want {
			t.Fatalf("%s: orbit weights sum to %v, want %v", spec, sum, want)
		}
	}
}

func TestOctantDestsK8(t *testing.T) {
	tor := NewTorus(8)
	classes := tor.Group().Classes()
	// Octant for k=8: x in 1..4, y in 0..x -> 2+3+4+5 = 14 commodities.
	if len(classes) != 14 {
		t.Fatalf("k=8 octant has %d classes, want 14", len(classes))
	}
	// The orbit-weighted total distance over the octant matches the total
	// over all pairs from one source.
	var tot float64
	for _, cl := range classes {
		if !tor.inCone(cl.Dst) {
			t.Fatalf("class rep %d outside the octant", cl.Dst)
		}
		tot += cl.Weight * float64(cl.MinDist)
	}
	if want := tor.MeanMinDist() * float64(tor.N); tot != want {
		t.Fatalf("octant total distance %v, want %v", tot, want)
	}
}

// TestCanonicalRelQuick checks on random pairs of torus2d:7 and torus3d:5
// that PairAut's automorphism maps the pair onto (0, cone offset).
func TestCanonicalRelQuick(t *testing.T) {
	for _, q := range []*cube{&NewTorus(7).cube, newCube(3, 5)} {
		g := q.Group()
		prop := func(s, d uint16) bool {
			sn, dn := Node(int(s)%q.N), Node(int(d)%q.N)
			ci, a := g.PairAut(sn, dn)
			if sn == dn {
				return ci == -1
			}
			img := g.ApplyNode(a, dn)
			return g.ApplyNode(a, sn) == 0 && img == g.Classes()[ci].Dst && q.inCone(img)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s: %v", String(q), err)
		}
	}
}

func TestAllAutsSize(t *testing.T) {
	if got := NewTorus(4).Group().Size(); got != 8*16 {
		t.Fatalf("|Aut| = %d, want 128", got)
	}
	if got := newCube(3, 3).Group().Size(); got != 48*27 {
		t.Fatalf("torus3d:3 |Aut| = %d, want 1296", got)
	}
}

func TestParseRejectsOverflow(t *testing.T) {
	for _, spec := range []string{
		"torus3d:2100000", "torus2d:3037000500", "torus3d:9223372036854775807",
		"mesh:3037000500x3037000500", "mesh:2x4611686018427387904",
	} {
		if tp, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded with %d nodes", spec, tp.Nodes())
		}
	}
	if _, err := ParseLimit("mesh:2x3000000", 1024); err == nil {
		t.Error("ParseLimit accepted a mesh past the node cap")
	}
	if tp, err := ParseLimit("torus3d:4", 64); err != nil || tp.Nodes() != 64 {
		t.Errorf("ParseLimit(torus3d:4, 64) = %v, %v; want the 64-node cube", tp, err)
	}
}
