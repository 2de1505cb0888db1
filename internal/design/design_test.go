package design

import (
	"math"
	"testing"

	"tcr/internal/eval"
	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

func TestWorstCaseOptimalK4(t *testing.T) {
	tor := topo.NewTorus(4)
	res, err := WorstCaseOptimal(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The optimal worst-case load on a torus is twice the uniform-optimal
	// load (half of capacity): k/8 * 2 = 1.0 for k=4. VAL achieves it.
	if math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("optimal gamma_wc = %v, want 1.0", res.GammaWC)
	}
	frac := (1 / res.GammaWC) / eval.NetworkCapacity(tor)
	if math.Abs(frac-0.5) > 1e-5 {
		t.Fatalf("optimal worst-case fraction = %v, want 0.5", frac)
	}
	// The LP bound and the exact evaluation must agree at convergence.
	if res.GammaWC < res.Objective-1e-6 {
		t.Fatalf("oracle load %v below LP objective %v", res.GammaWC, res.Objective)
	}
	if res.Flow.ConservationError() > 1e-6 {
		t.Fatalf("conservation error %v", res.Flow.ConservationError())
	}
}

func TestFoldingsAgree(t *testing.T) {
	// The translation-only folding quadruples the commodity count and, at
	// non-binding locality budgets, leaves a huge optimal face that this
	// simplex crosses slowly; the cross-check therefore sticks to the
	// binding-budget cases that run in seconds (k=4 at L=1.0/1.4 plus the
	// odd radix k=3 across the range). Octant-vs-explicit ground truth at
	// k=2 lives in TestFullLPMatchesCuttingPlanes.
	cases := []struct {
		k  int
		hs []float64
	}{
		{3, []float64{1.0, 1.4, 2.0}},
		{4, []float64{1.0, 1.4}},
	}
	for _, c := range cases {
		if testing.Short() && c.k > 3 {
			continue
		}
		tor := topo.NewTorus(c.k)
		for _, h := range c.hs {
			a, err := WorstCaseAtLocality(tor, h, Options{})
			if err != nil {
				t.Fatalf("k=%d h=%v octant: %v", c.k, h, err)
			}
			b, err := WorstCaseAtLocality(tor, h, Options{fold: foldTranslation})
			if err != nil {
				t.Fatalf("k=%d h=%v translation: %v", c.k, h, err)
			}
			if math.Abs(a.GammaWC-b.GammaWC) > 1e-5 {
				t.Fatalf("k=%d h=%v: octant gamma %v vs translation %v",
					c.k, h, a.GammaWC, b.GammaWC)
			}
		}
	}
	// The 2TURN path LP folds the same two ways; its translation folding
	// takes seconds from k=4 on, so the cross-check runs at k=3.
	t3 := topo.NewTorus(3)
	a, err := DesignTwoTurn(t3, Options{})
	if err != nil {
		t.Fatalf("2TURN octant: %v", err)
	}
	b, err := DesignTwoTurn(t3, Options{fold: foldTranslation})
	if err != nil {
		t.Fatalf("2TURN translation: %v", err)
	}
	if math.Abs(a.GammaWC-b.GammaWC) > 1e-5 || math.Abs(a.HNorm-b.HNorm) > 1e-5 {
		t.Fatalf("2TURN: octant (gamma %v, H %v) vs translation (%v, %v)", a.GammaWC, a.HNorm, b.GammaWC, b.HNorm)
	}
}

func TestFullLPMatchesCuttingPlanes(t *testing.T) {
	tor := topo.NewTorus(2)
	full, err := FullWorstCaseLP(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := WorstCaseOptimal(tor, Options{fold: foldTranslation})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Objective-cut.Objective) > 1e-6 {
		t.Fatalf("full LP %v vs cutting planes %v", full.Objective, cut.Objective)
	}
	if math.Abs(full.GammaWC-cut.GammaWC) > 1e-6 {
		t.Fatalf("full gamma %v vs cutting gamma %v", full.GammaWC, cut.GammaWC)
	}
}

func TestParetoCurveShape(t *testing.T) {
	tor := topo.NewTorus(4)
	hs := []float64{1.0, 1.25, 1.5, 1.75, 2.0}
	pts, err := WorstCaseParetoCurve(tor, hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Theta < pts[i-1].Theta-1e-6 {
			t.Fatalf("Pareto curve not monotone: %v then %v", pts[i-1], pts[i])
		}
	}
	// The right end reaches the worst-case optimum (0.5 of capacity).
	if math.Abs(pts[len(pts)-1].Theta-0.5) > 1e-5 {
		t.Fatalf("curve endpoint %v, want 0.5", pts[len(pts)-1].Theta)
	}
	// At minimal locality the optimum equals DOR's worst case (DOR is
	// worst-case optimal among minimal algorithms, Section 5.1).
	dor := eval.FromAlgorithm(tor, routing.DOR{})
	dorFrac := dor.WorstCaseThroughput() / eval.NetworkCapacity(tor)
	if pts[0].Theta < dorFrac-1e-6 {
		t.Fatalf("minimal-locality optimum %v below DOR %v", pts[0].Theta, dorFrac)
	}
}

func TestMinLocalityAtWorstCase(t *testing.T) {
	tor := topo.NewTorus(4)
	res, err := MinLocalityAtWorstCase(tor, Options{Slack: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GammaWC-1.0) > 1e-4 {
		t.Fatalf("gamma_wc = %v, want 1.0", res.GammaWC)
	}
	// Locality must be at least minimal and at most VAL's 2x.
	if res.HNorm < 1-1e-9 || res.HNorm > 2+1e-9 {
		t.Fatalf("HNorm = %v out of range", res.HNorm)
	}
	// IVAL is a feasible point, so the optimum is at least as local.
	ival := eval.FromAlgorithm(tor, routing.IVAL{})
	if res.HNorm > ival.HNorm()+1e-6 {
		t.Fatalf("optimal HNorm %v worse than IVAL %v", res.HNorm, ival.HNorm())
	}
}

func TestDesignTwoTurnK4MatchesOptimal(t *testing.T) {
	// Section 5.2 / Figure 4: for k = 4 (and 6), 2TURN exactly matches the
	// optimal locality at maximal worst-case throughput.
	tor := topo.NewTorus(4)
	opt, err := MinLocalityAtWorstCase(tor, Options{Slack: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := DesignTwoTurn(tor, Options{Slack: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tt.GammaWC-1.0) > 1e-4 {
		t.Fatalf("2TURN gamma_wc = %v, want 1.0", tt.GammaWC)
	}
	if math.Abs(tt.HNorm-opt.HNorm) > 1e-4 {
		t.Fatalf("2TURN HNorm %v vs optimal %v", tt.HNorm, opt.HNorm)
	}
	// The produced table must be a valid routing function.
	f := eval.FromAlgorithm(tor, tt.Table)
	if e := f.ConservationError(); e > 1e-6 {
		t.Fatalf("2TURN table conservation error %v", e)
	}
	gw, _ := f.WorstCase()
	if math.Abs(gw-tt.GammaWC) > 1e-6 {
		t.Fatalf("table worst case %v vs reported %v", gw, tt.GammaWC)
	}
}

// TestDesignTwoTurnK8 is the paper's Section 5.2 headline instance: 2TURN
// on the 8-ary 2-cube keeps the optimal worst case (gamma 2, half of
// capacity) at about 1.48x minimal locality.
func TestDesignTwoTurnK8(t *testing.T) {
	if testing.Short() {
		t.Skip("k=8 2TURN design takes about 3 s")
	}
	tt, err := DesignTwoTurn(topo.NewTorus(8), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tt.GammaWC-2) > 1e-5*2 {
		t.Errorf("2TURN gamma_wc = %v, want 2", tt.GammaWC)
	}
	if math.Abs(tt.HNorm-1.4844) > 1e-3 {
		t.Errorf("2TURN HNorm = %v, want about 1.4844 (paper ~1.48)", tt.HNorm)
	}
}

func TestDecomposeFlowRoundTrip(t *testing.T) {
	tor := topo.NewTorus(4)
	res, err := WorstCaseOptimal(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := DecomposeFlow(res.Flow, "wc-opt")
	if err != nil {
		t.Fatal(err)
	}
	f := eval.FromAlgorithm(tor, tbl)
	// Path recovery may only shed load (residual cycles are dropped).
	gw, _ := f.WorstCase()
	if gw > res.GammaWC+1e-6 {
		t.Fatalf("decomposed worst case %v exceeds flow's %v", gw, res.GammaWC)
	}
	if f.HAvg() > res.HAvg+1e-6 {
		t.Fatalf("decomposed H %v exceeds flow's %v", f.HAvg(), res.HAvg)
	}
	if e := f.ConservationError(); e > 1e-6 {
		t.Fatalf("decomposed table conservation error %v", e)
	}
}

// TestDecomposeFlowK5WCOpt is the `tcr design -k 5 -kind wcopt`
// regression (min locality at the optimal worst case → decompose → eval):
// the certified flow comes up about 1.4e-7 short of a unit for some
// destinations, more than decompCoverTol but within the LP's conservation
// accuracy, and the decomposition must still yield a table with the
// design's worst-case load.
func TestDecomposeFlowK5WCOpt(t *testing.T) {
	tor := topo.NewTorus(5)
	res, err := MinLocalityAtWorstCase(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := DecomposeFlow(res.Flow, "wc-opt")
	if err != nil {
		t.Fatal(err)
	}
	f := eval.FromAlgorithm(tor, tbl)
	gw, _ := f.WorstCase()
	if math.Abs(gw-res.GammaWC) > 1e-6 {
		t.Fatalf("decomposed table worst case %v, design's %v", gw, res.GammaWC)
	}
	if e := f.ConservationError(); e > 1e-6 {
		t.Fatalf("decomposed table conservation error %v", e)
	}
	// A shortfall well beyond the LP's accuracy is still an error.
	short := eval.NewFlow(tor)
	for rel, row := range res.Flow.X {
		copy(short.X[rel], row)
	}
	for c := range short.X[6] {
		short.X[6][c] *= 1 - 1e-3
	}
	if _, err := DecomposeFlow(short, "short"); err == nil {
		t.Fatal("decomposition accepted a flow 1e-3 short of a unit")
	}
}

func TestAvgCaseOptimalBeatsClosedForms(t *testing.T) {
	tor := topo.NewTorus(4)
	samples := traffic.Sample(tor.N, 12, 17)
	res, err := AvgCaseOptimal(tor, samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []routing.Algorithm{routing.DOR{}, routing.VAL{}, routing.IVAL{}} {
		f := eval.FromAlgorithm(tor, alg)
		if got := f.AvgCase(samples).MeanMaxLoad; got < res.Objective-1e-6 {
			t.Fatalf("%s mean max load %v beats 'optimal' %v", alg.Name(), got, res.Objective)
		}
	}
}

func TestAvgCaseLocalityConstraintBinds(t *testing.T) {
	tor := topo.NewTorus(4)
	samples := traffic.Sample(tor.N, 8, 23)
	free, err := AvgCaseOptimal(tor, samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	atMin, err := AvgCaseAtLocality(tor, samples, 1.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if atMin.Objective < free.Objective-1e-7 {
		t.Fatalf("constrained optimum %v beats free optimum %v", atMin.Objective, free.Objective)
	}
	if math.Abs(atMin.HNorm-1.0) > 1e-6 {
		t.Fatalf("locality constraint not binding: HNorm %v", atMin.HNorm)
	}
}

func TestDesignTwoTurnAvg(t *testing.T) {
	tor := topo.NewTorus(4)
	samples := traffic.Sample(tor.N, 8, 31)
	res, err := DesignTwoTurnAvg(tor, samples, Options{Slack: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// 2TURNA's sampled mean max load can be no worse than 2TURN's (same
	// path space, avg-specific objective).
	tt, err := DesignTwoTurn(tor, Options{Slack: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	ttAvg := tt.Flow.AvgCase(samples).MeanMaxLoad
	if res.Objective > ttAvg+1e-6 {
		t.Fatalf("2TURNA mean load %v worse than 2TURN's %v", res.Objective, ttAvg)
	}
	f := eval.FromAlgorithm(tor, res.Table)
	if e := f.ConservationError(); e > 1e-6 {
		t.Fatalf("2TURNA conservation error %v", e)
	}
}

func TestMinimalAvgMatchesROMMBallpark(t *testing.T) {
	// Section 5.4: optimizing the average case over minimal two-turn paths
	// produces ROMM-like performance.
	tor := topo.NewTorus(4)
	samples := traffic.Sample(tor.N, 8, 41)
	res, err := DesignMinimalAvg(tor, samples, Options{Slack: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.HNorm-1.0) > 1e-6 {
		t.Fatalf("minimal design is not minimal: HNorm %v", res.HNorm)
	}
	romm := eval.FromAlgorithm(tor, routing.ROMM{}).AvgCase(samples).MeanMaxLoad
	if res.Objective > romm+1e-6 {
		t.Fatalf("minimal-optimal mean load %v worse than ROMM %v", res.Objective, romm)
	}
	// "Matches" means within a modest factor, not orders apart.
	if romm > res.Objective*1.35 {
		t.Fatalf("ROMM %v far from minimal-optimal %v", romm, res.Objective)
	}
}
