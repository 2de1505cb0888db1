package design

import (
	"context"
	"math"
	"testing"

	"tcr/internal/eval"
	"tcr/internal/lp"
	"tcr/internal/matching"
	"tcr/internal/routing"
	"tcr/internal/topo"
)

// The full-group folding separates on one representative channel per
// full-group channel orbit (a single channel on the tori). That is sound
// only if the unfolded routing function is invariant under the whole group,
// which the tied stabilizer-orbit columns of addFlowVars are there to
// enforce. These tests check it metamorphically on designed flows: every
// group element must map the flow onto itself, and no channel may carry a
// worse permutation than the representatives the oracle certified.

// imageGap returns the largest difference between f and its image under
// group element a: the pair (a s, a d) must carry on channel a c what (s, d)
// carries on c. On vertex-transitive families row rel of f is the pair
// (0, rel), and its image pair's row is read with channels translated back
// by a 0.
func imageGap(f *eval.Flow, g topo.AutGroup, a topo.AutID) float64 {
	t := f.T
	n, nc := t.Nodes(), t.Chans()
	gap := 0.0
	if t.VertexTransitive() {
		tg := t.TransGroup()
		s0 := g.ApplyNode(a, 0)
		_, back := tg.PairAut(s0, 0)
		for rel := 1; rel < n; rel++ {
			img := f.X[t.RelNode(s0, g.ApplyNode(a, topo.Node(rel)))]
			for c := 0; c < nc; c++ {
				hc := tg.ApplyChan(back, g.ApplyChan(a, topo.Channel(c)))
				gap = math.Max(gap, math.Abs(img[hc]-f.X[rel][c]))
			}
		}
		return gap
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			img := f.X[int(g.ApplyNode(a, topo.Node(s)))*n+int(g.ApplyNode(a, topo.Node(d)))]
			for c := 0; c < nc; c++ {
				gap = math.Max(gap, math.Abs(img[g.ApplyChan(a, topo.Channel(c))]-f.X[s*n+d][c]))
			}
		}
	}
	return gap
}

// spreadSample returns every element of g, or a deterministic sample of at
// least 24 spread over Elements() when the group is larger than limit.
func spreadSample(g topo.AutGroup, limit int) []topo.AutID {
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

// channelWorst is the exact worst permutation load on channel c.
func channelWorst(t *testing.T, f *eval.Flow, c topo.Channel) float64 {
	t.Helper()
	_, g, err := matching.MaxWeightAssignment(f.PairLoadMatrix(c))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDesignedFlowsAreGroupInvariant(t *testing.T) {
	specs := []string{"torus2d:4", "torus2d:5", "torus3d:3", "mesh:4x4"}
	if testing.Short() {
		specs = specs[:1]
	}
	opts := Options{Workers: 1}
	for _, spec := range specs {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		type designRun struct {
			name string
			run  func() (*Result, error)
		}
		designs := []designRun{
			{"WorstCaseOptimal", func() (*Result, error) { return WorstCaseOptimal(tp, opts) }},
			{"WorstCaseAtLocality(1.25)", func() (*Result, error) { return WorstCaseAtLocality(tp, 1.25, opts) }},
		}
		if tor, ok := tp.(*topo.Torus); ok {
			designs = append(designs, designRun{"DesignTwoTurn", func() (*Result, error) {
				res, err := DesignTwoTurn(tor, opts)
				if err != nil {
					return nil, err
				}
				// The table maps the commodities' paths back through the
				// pair automorphisms; it must route the unfolded flow.
				if h := eval.FromAlgorithm(tor, res.Table).HNorm(); math.Abs(h-res.HNorm) > 1e-9*res.HNorm {
					t.Errorf("%s DesignTwoTurn: table HNorm %v, flow HNorm %v", spec, h, res.HNorm)
				}
				return &Result{Flow: res.Flow, GammaWC: res.GammaWC, Certified: true}, nil
			}})
		}
		for _, dc := range designs {
			res, err := dc.run()
			if err != nil {
				t.Fatalf("%s %s: %v", spec, dc.name, err)
			}
			if !res.Certified {
				t.Fatalf("%s %s: uncertified: %s", spec, dc.name, res.Reason)
			}
			g := tp.Group()
			for _, a := range spreadSample(g, 256) {
				if gap := imageGap(res.Flow, g, a); gap > 1e-12 {
					t.Fatalf("%s %s: image under element %d differs by %g", spec, dc.name, a, gap)
				}
			}
			// The oracle certified the representatives; every channel
			// must be covered by them.
			certified := 0.0
			for _, c := range g.ChanOrbitReps() {
				certified = math.Max(certified, channelWorst(t, res.Flow, c))
			}
			if math.Abs(res.GammaWC-certified) > 1e-9*certified {
				t.Errorf("%s %s: GammaWC %v, representatives' worst case %v", spec, dc.name, res.GammaWC, certified)
			}
			for c := 0; c < tp.Chans(); c++ {
				if w := channelWorst(t, res.Flow, topo.Channel(c)); w > certified*(1+1e-9) {
					t.Fatalf("%s %s: channel %d worst case %v exceeds the certified %v", spec, dc.name, c, w, certified)
				}
			}
		}
	}
}

// TestCertifyChecksEveryChannel runs the cut loop on a separation step that
// under-reports its iterate's worst case, as one whose representatives miss
// a channel orbit would: the loop must not certify the iterate. The same
// stub reporting the true worst case certifies.
func TestCertifyChecksEveryChannel(t *testing.T) {
	flow := eval.FromAlgorithm(topo.NewTorus(4), routing.DOR{})
	gw, _ := flow.WorstCase()
	stub := func(score float64) *cutLoop {
		return &cutLoop{name: "stub loop", opts: Options{Workers: 1},
			solve: func(context.Context) (*lp.Solution, error) {
				return &lp.Solution{Status: lp.Optimal, Objective: score}, nil
			},
			separate: func(context.Context, *lp.Solution) (*eval.Flow, float64, bool, error) {
				return flow, score, false, nil
			}}
	}
	res, err := stub(gw / 2).run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified || res.Reason == "" {
		t.Fatalf("score %v under the worst case %v: Certified %v, Reason %q", gw/2, gw, res.Certified, res.Reason)
	}
	//lint:ignore floatcmp both sides are the same exact Hungarian evaluation
	if res.GammaWC != gw {
		t.Errorf("uncertified GammaWC %v, want the exact %v", res.GammaWC, gw)
	}
	res, err = stub(gw).run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("true score uncertified: %s", res.Reason)
	}
}
