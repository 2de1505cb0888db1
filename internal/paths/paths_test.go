package paths

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcr/internal/topo"
)

func TestPathWalk(t *testing.T) {
	tor := topo.NewTorus(4)
	p := Path{Src: tor.NodeAt(0, 0), Dirs: []topo.Dir{topo.XPlus, topo.XPlus, topo.YMinus}}
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if got := p.Dst(tor); got != tor.NodeAt(2, 3) {
		t.Fatalf("dst = %d, want (2,3)", got)
	}
	if chs := p.Channels(tor); len(chs) != 3 {
		t.Fatalf("channels = %v", chs)
	}
}

func TestTurnsAndUTurns(t *testing.T) {
	cases := []struct {
		dirs  []topo.Dir
		turns int
		uturn bool
	}{
		{[]topo.Dir{topo.XPlus, topo.XPlus}, 0, false},
		{[]topo.Dir{topo.XPlus, topo.YPlus}, 1, false},
		{[]topo.Dir{topo.XPlus, topo.YPlus, topo.XPlus}, 2, false},
		{[]topo.Dir{topo.XPlus, topo.YPlus, topo.XMinus}, 2, true},
		{[]topo.Dir{topo.YPlus, topo.XPlus, topo.YPlus, topo.XPlus}, 3, false},
		{nil, 0, false},
	}
	for i, c := range cases {
		p := Path{Src: 0, Dirs: c.dirs}
		if got := p.Turns(); got != c.turns {
			t.Errorf("case %d: turns = %d, want %d", i, got, c.turns)
		}
		if got := p.HasUTurn(); got != c.uturn {
			t.Errorf("case %d: uturn = %v, want %v", i, got, c.uturn)
		}
	}
}

func TestRevisitsChannel(t *testing.T) {
	tor := topo.NewTorus(4)
	// Going +x 4 times wraps the ring without revisiting a channel...
	p := Path{Src: 0, Dirs: []topo.Dir{topo.XPlus, topo.XPlus, topo.XPlus, topo.XPlus}}
	if p.RevisitsChannel(tor) {
		t.Error("full ring should not revisit channels")
	}
	// ...but a fifth hop does.
	p.Dirs = append(p.Dirs, topo.XPlus)
	if !p.RevisitsChannel(tor) {
		t.Error("k+1 hops must revisit a channel")
	}
}

func TestRemoveLoopsFigure3(t *testing.T) {
	// The paper's Figure 3 situation: phase 1 overshoots in x and phase 2
	// returns, creating a loop that removal splices out.
	tor := topo.NewTorus(8)
	s := tor.NodeAt(0, 0)
	// +x +x +x, then -x -x +y: the last two -x hops retrace nodes.
	p := Path{Src: s, Dirs: []topo.Dir{
		topo.XPlus, topo.XPlus, topo.XPlus, topo.XMinus, topo.XMinus, topo.YPlus}}
	clean := RemoveLoops(tor, p)
	if clean.Dst(tor) != p.Dst(tor) {
		t.Fatal("loop removal changed the destination")
	}
	if clean.Len() != 2 { // +x +y
		t.Fatalf("cleaned length = %d, want 2 (%v)", clean.Len(), clean)
	}
	// No node revisited afterwards.
	seen := map[topo.Node]bool{}
	for _, n := range clean.Nodes(tor) {
		if seen[n] {
			t.Fatal("cleaned path still revisits a node")
		}
		seen[n] = true
	}
}

func TestRemoveLoopsNeverIncreasesChannelLoad(t *testing.T) {
	tor := topo.NewTorus(5)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		dirs := make([]topo.Dir, rng.Intn(12))
		for i := range dirs {
			dirs[i] = topo.Dir(rng.Intn(topo.NumDirs))
		}
		p := Path{Src: topo.Node(rng.Intn(tor.N)), Dirs: dirs}
		clean := RemoveLoops(tor, p)
		if clean.Dst(tor) != p.Dst(tor) {
			t.Fatalf("trial %d: destination changed", trial)
		}
		// Channel usage of clean must be a sub-multiset of the original's.
		orig := map[topo.Channel]int{}
		for _, c := range p.Channels(tor) {
			orig[c]++
		}
		for _, c := range clean.Channels(tor) {
			orig[c]--
			if orig[c] < 0 {
				t.Fatalf("trial %d: loop removal added channel %d", trial, c)
			}
		}
		// Idempotence.
		again := RemoveLoops(tor, clean)
		if again.Len() != clean.Len() {
			t.Fatalf("trial %d: removal not idempotent", trial)
		}
	}
}

func TestDORPathsBasic(t *testing.T) {
	tor := topo.NewTorus(8)
	s := tor.NodeAt(1, 1)
	d := tor.NodeAt(3, 6)
	ws := DORPaths(tor, s, d, true)
	if len(ws) != 1 {
		t.Fatalf("expected unique DOR path, got %d", len(ws))
	}
	p := ws[0].Path
	if p.Dst(tor) != d {
		t.Fatal("DOR path misses destination")
	}
	if p.Len() != tor.MinDist(s, d) {
		t.Fatalf("DOR length %d, want %d", p.Len(), tor.MinDist(s, d))
	}
	// x hops must precede y hops.
	sawY := false
	for _, dir := range p.Dirs {
		if dir.IsX() && sawY {
			t.Fatal("x hop after y hop in x-first DOR")
		}
		if !dir.IsX() {
			sawY = true
		}
	}
}

func TestDORPathsTieSplit(t *testing.T) {
	tor := topo.NewTorus(8)
	s := tor.NodeAt(0, 0)
	d := tor.NodeAt(4, 4) // both dimensions tied
	ws := DORPaths(tor, s, d, true)
	if len(ws) != 4 {
		t.Fatalf("expected 4 tie-split paths, got %d", len(ws))
	}
	var sum float64
	for _, w := range ws {
		sum += w.Prob
		if w.Prob != 0.25 {
			t.Fatalf("tie probability %v, want 0.25", w.Prob)
		}
		if w.Path.Dst(tor) != d || w.Path.Len() != 8 {
			t.Fatal("tie path invalid")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestDORPathsAllPairs(t *testing.T) {
	for _, k := range []int{4, 5, 8} {
		tor := topo.NewTorus(k)
		for s := topo.Node(0); s < topo.Node(tor.N); s++ {
			for d := topo.Node(0); d < topo.Node(tor.N); d++ {
				var sum float64
				for _, w := range DORPaths(tor, s, d, false) {
					sum += w.Prob
					if w.Path.Dst(tor) != d {
						t.Fatalf("k=%d (%d->%d): wrong destination", k, s, d)
					}
					if w.Path.Len() != tor.MinDist(s, d) {
						t.Fatalf("k=%d (%d->%d): non-minimal DOR", k, s, d)
					}
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("k=%d (%d->%d): prob sum %v", k, s, d, sum)
				}
			}
		}
	}
}

func TestTwoTurnPathsInvariants(t *testing.T) {
	for _, k := range []int{4, 5, 6, 8} {
		tor := topo.NewTorus(k)
		s := topo.Node(0)
		for d := topo.Node(0); d < topo.Node(tor.N); d++ {
			ps := TwoTurnPaths(tor, s, d)
			if len(ps) == 0 {
				t.Fatalf("k=%d: no two-turn paths to %d", k, d)
			}
			keys := map[string]bool{}
			for _, p := range ps {
				if p.Dst(tor) != d {
					t.Fatalf("k=%d dest %d: path ends at %d", k, d, p.Dst(tor))
				}
				if p.Turns() > 2 {
					t.Fatalf("k=%d dest %d: %d turns", k, d, p.Turns())
				}
				for h := 1; h < len(p.Dirs); h++ {
					if p.Dirs[h] == p.Dirs[h-1].Reverse() {
						t.Fatalf("k=%d dest %d: immediate reversal in %v", k, d, p)
					}
				}
				if p.RevisitsChannel(tor) {
					t.Fatalf("k=%d dest %d: channel revisit in %v", k, d, p)
				}
				if keys[p.Key()] {
					t.Fatalf("k=%d dest %d: duplicate path %v", k, d, p)
				}
				keys[p.Key()] = true
			}
			// The minimal DOR paths (no u-turn, <=1 turn) must be included.
			for _, w := range DORPaths(tor, s, d, true) {
				if !keys[w.Path.Key()] {
					t.Fatalf("k=%d dest %d: DOR path %v missing from two-turn set", k, d, w.Path)
				}
			}
		}
	}
}

func TestTwoTurnIncludesNonMinimal(t *testing.T) {
	tor := topo.NewTorus(8)
	// Destination one hop away: the long way around (7 hops) must appear.
	d := tor.NodeAt(1, 0)
	ps := TwoTurnPaths(tor, 0, d)
	foundLong := false
	for _, p := range ps {
		if p.Len() == 7 {
			foundLong = true
		}
	}
	if !foundLong {
		t.Fatal("two-turn set lacks the long-way-around path")
	}
	// Zero-offset dimension: full-ring traversals enable x-nonminimal
	// routing for an axis destination.
	d = tor.NodeAt(0, 3)
	foundRing := false
	for _, p := range TwoTurnPaths(tor, 0, d) {
		if p.Len() > 8 {
			foundRing = true
		}
	}
	if !foundRing {
		t.Fatal("two-turn set lacks full-ring options for axis destinations")
	}
}

// TestTwoTurnContainsIVALPaths checks the paper's claim that the 2TURN path
// space is a superset of IVAL's paths (Section 5.2).
func TestTwoTurnContainsIVALPaths(t *testing.T) {
	tor := topo.NewTorus(6)
	for d := topo.Node(0); d < topo.Node(tor.N); d++ {
		family := map[string]bool{}
		for _, p := range TwoTurnPaths(tor, 0, d) {
			family[p.Key()] = true
		}
		// Reconstruct IVAL's distribution inline (xy phase to every
		// intermediate, yx phase onward, loops removed).
		for i := topo.Node(0); i < topo.Node(tor.N); i++ {
			for _, p1 := range DORPaths(tor, 0, i, true) {
				for _, p2 := range DORPaths(tor, i, d, false) {
					p := RemoveLoops(tor, Concat(p1.Path, p2.Path))
					if p.Len() == 0 {
						continue // self traffic or fully cancelled
					}
					if !family[p.Key()] {
						t.Fatalf("dest %d: IVAL path %v missing from 2TURN family", d, p)
					}
				}
			}
		}
	}
}

func TestMinimalTwoTurnPaths(t *testing.T) {
	tor := topo.NewTorus(6)
	for d := topo.Node(1); d < topo.Node(tor.N); d++ {
		min := tor.MinDist(0, d)
		for _, p := range MinimalTwoTurnPaths(tor, 0, d) {
			if p.Len() != min {
				t.Fatalf("dest %d: non-minimal path in minimal set", d)
			}
		}
	}
}

// TestPathFamiliesClosedUnderGroup checks that the 2TURN path families are
// closed under the torus's full automorphism group, which the design layer's
// path LPs rely on to fold by it: every element maps the paths from 0 to d,
// compared as channel sequences, exactly onto the paths between the images.
// k=8 also holds but takes about a minute, so it is left out, and -short
// stops at k=5.
func TestPathFamiliesClosedUnderGroup(t *testing.T) {
	families := map[string]func(*topo.Torus, topo.Node, topo.Node) []Path{
		"TwoTurnPaths": TwoTurnPaths, "MinimalTwoTurnPaths": MinimalTwoTurnPaths,
	}
	kmax := 6
	if testing.Short() {
		kmax = 5
	}
	for k := 3; k <= kmax; k++ {
		tor := topo.NewTorus(k)
		g := tor.Group()
		for name, family := range families {
			// keys returns a pair's paths as a set of channel sequences.
			memo := map[[2]topo.Node]map[string]bool{}
			keys := func(s, d topo.Node) map[string]bool {
				if m, ok := memo[[2]topo.Node{s, d}]; ok {
					return m
				}
				m := map[string]bool{}
				for _, p := range family(tor, s, d) {
					m[fmt.Sprint(p.Channels(tor))] = true
				}
				memo[[2]topo.Node{s, d}] = m
				return m
			}
			for d := topo.Node(1); d < topo.Node(tor.N); d++ {
				ps := family(tor, 0, d)
				for _, a := range g.Elements() {
					want := keys(g.ApplyNode(a, 0), g.ApplyNode(a, d))
					if len(want) != len(ps) {
						t.Fatalf("k=%d %s: %d paths to %d, %d between its images under element %d", k, name, len(ps), d, len(want), a)
					}
					for _, p := range ps {
						img := p.Channels(tor)
						for i, c := range img {
							img[i] = g.ApplyChan(a, c)
						}
						if !want[fmt.Sprint(img)] {
							t.Fatalf("k=%d %s: element %d maps path %v to %d outside the family", k, name, a, p, d)
						}
					}
				}
			}
		}
	}
}

// TestApplyAutomorphismPreservesShape maps random paths hop by hop through
// torus automorphisms: the image keeps the length and turn count and ends
// at the image of the destination.
func TestApplyAutomorphismPreservesShape(t *testing.T) {
	tor := topo.NewTorus(8)
	g := tor.Group()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		dirs := make([]topo.Dir, 1+rng.Intn(8))
		for i := range dirs {
			dirs[i] = topo.Dir(rng.Intn(topo.NumDirs))
		}
		p := Path{Src: topo.Node(rng.Intn(tor.N)), Dirs: dirs}
		a := topo.AutID(rng.Intn(g.Size()))
		q := Path{Src: g.ApplyNode(a, p.Src), Dirs: make([]topo.Dir, len(dirs))}
		n := p.Src
		for i, d := range dirs {
			q.Dirs[i] = tor.ChanDir(g.ApplyChan(a, tor.Chan(n, d)))
			n = tor.Neighbor(n, d)
		}
		if q.Len() != p.Len() || q.Turns() != p.Turns() {
			t.Fatal("automorphism changed length or turn count")
		}
		if q.Dst(tor) != g.ApplyNode(a, p.Dst(tor)) {
			t.Fatal("automorphism image has wrong destination")
		}
	}
}

func TestConcat(t *testing.T) {
	tor := topo.NewTorus(4)
	p := Path{Src: 0, Dirs: []topo.Dir{topo.XPlus}}
	q := Path{Src: p.Dst(tor), Dirs: []topo.Dir{topo.YPlus}}
	c := Concat(p, q)
	if c.Len() != 2 || c.Dst(tor) != tor.NodeAt(1, 1) {
		t.Fatalf("concat = %v", c)
	}
}
