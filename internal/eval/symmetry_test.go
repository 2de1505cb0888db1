package eval

import (
	"math"
	"testing"

	"tcr/internal/routing"
	"tcr/internal/topo"
)

// The Section 4 reduction rests on one fact: mapping a routing function
// through an automorphism of the network maps every traffic pattern's
// channel loads onto another pattern's, so worst-case load and average path
// length are invariant. These tests check it metamorphically: evaluate a
// deliberately asymmetric routing, push its flow through group elements, and
// compare.

// lowestPortFlow routes every pair along the lowest-numbered port that
// reduces the minimal distance: a deterministic minimal routing that favors
// low axes and forward steps, so on the tori no nontrivial point symmetry
// preserves it.
func lowestPortFlow(t topo.Topology) *Flow {
	f := NewFlow(t)
	n := t.Nodes()
	for s := 0; s < n; s++ {
		if t.VertexTransitive() && s > 0 {
			break
		}
		for d := 0; d < n; d++ {
			row := f.X[RowOf(t, topo.Node(s), topo.Node(d))]
			for at := topo.Node(s); at != topo.Node(d); {
				dist := t.MinDist(at, topo.Node(d))
				for p := 0; p < t.OutDeg(at); p++ {
					c := t.PortChan(at, p)
					if next := t.ChanDst(c); t.MinDist(next, topo.Node(d)) < dist {
						row[c]++
						at = next
						break
					}
				}
			}
		}
	}
	return f
}

// imageFlow returns sigma(f): the pair (sigma s, sigma d) carries on channel
// sigma c what (s, d) carried on c. On vertex-transitive families row rel of
// f is the pair (0, rel); its image pair is stored at row RelNode(sigma 0,
// sigma rel) with channels translated back by sigma 0.
func imageFlow(f *Flow, g topo.AutGroup, a topo.AutID) *Flow {
	t := f.T
	n, nc := t.Nodes(), t.Chans()
	img := NewFlow(t)
	if t.VertexTransitive() {
		tg := t.TransGroup()
		s0 := g.ApplyNode(a, 0)
		_, back := tg.PairAut(s0, 0) // the identity when s0 == 0
		for rel := 1; rel < n; rel++ {
			row := img.X[t.RelNode(s0, g.ApplyNode(a, topo.Node(rel)))]
			for c := 0; c < nc; c++ {
				row[tg.ApplyChan(back, g.ApplyChan(a, topo.Channel(c)))] = f.X[rel][c]
			}
		}
		return img
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			row := img.X[RowOf(t, g.ApplyNode(a, topo.Node(s)), g.ApplyNode(a, topo.Node(d)))]
			for c := 0; c < nc; c++ {
				row[g.ApplyChan(a, topo.Channel(c))] = f.X[s*n+d][c]
			}
		}
	}
	return img
}

// groupSample returns every element of g, or a deterministic sample of at
// least 24 spread over Elements() when the group is larger than limit.
func groupSample(g topo.AutGroup, limit int) []topo.AutID {
	els := g.Elements()
	if len(els) <= limit {
		return els
	}
	var out []topo.AutID
	for i := 0; i < len(els); i += len(els)/24 + 1 {
		out = append(out, els[i])
	}
	return append(out, els[len(els)-1])
}

func TestAutomorphismInvariance(t *testing.T) {
	type flowCase struct {
		spec string
		name string
		flow func(topo.Topology) *Flow
		// fixed marks a flow every group element maps onto itself.
		fixed bool
	}
	alg := func(a routing.Algorithm) func(topo.Topology) *Flow {
		return func(tp topo.Topology) *Flow { return FromAlgorithm(tp, a) }
	}
	cases := []flowCase{
		{"torus2d:5", "lowest-port", lowestPortFlow, false},
		{"torus2d:5", "DOR", alg(routing.DOR{}), false},
		{"torus2d:5", "ROMM", alg(routing.ROMM{}), false},
		{"torus3d:3", "lowest-port", lowestPortFlow, false},
		// Without an axis swap the mesh group only reflects axes, and on a
		// mesh lowest-port routing is x-then-y dimension order, which every
		// reflection preserves; the square mesh's swaps break it.
		{"mesh:3x4", "lowest-port", lowestPortFlow, true},
		{"mesh:4x4", "lowest-port", lowestPortFlow, false},
	}
	for _, tc := range cases {
		tp, err := topo.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		f := tc.flow(tp)
		wc, _ := f.WorstCase()
		h := f.HNorm()
		g := tp.Group()
		asym := false
		for _, a := range groupSample(g, 256) {
			img := imageFlow(f, g, a)
			if ce := img.ConservationError(); ce > 1e-12 {
				t.Fatalf("%s %s: image under %d violates conservation by %g", tc.spec, tc.name, a, ce)
			}
			iwc, _ := img.WorstCase()
			if math.Abs(iwc-wc) > 1e-9*wc {
				t.Fatalf("%s %s: worst-case load %v under %d, want %v", tc.spec, tc.name, iwc, a, wc)
			}
			if ih := img.HNorm(); math.Abs(ih-h) > 1e-9*h {
				t.Fatalf("%s %s: HNorm %v under %d, want %v", tc.spec, tc.name, ih, a, h)
			}
			asym = asym || !sameFlow(img, f)
		}
		// The check is vacuous unless some image differs from the original.
		if asym == tc.fixed {
			t.Fatalf("%s %s: some image differs from the flow: %v, want %v", tc.spec, tc.name, asym, !tc.fixed)
		}
	}
}

func sameFlow(a, b *Flow) bool {
	for r := range a.X {
		for c := range a.X[r] {
			//lint:ignore floatcmp exact comparison: images permute the same stored values
			if a.X[r][c] != b.X[r][c] {
				return false
			}
		}
	}
	return true
}
