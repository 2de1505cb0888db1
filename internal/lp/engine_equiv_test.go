package lp_test

// Cross-engine equivalence: the sparse LU + eta-file engine must reproduce
// the dense explicit-inverse engine's results — identical status, objectives
// within 1e-9, duals within tolerance — on randomized LPs, on the warm-start
// mutation patterns (AddCut loops, SetRHS sweeps), and on the real design
// LPs with adversarial permutation cuts. The dense engine is the oracle: it
// predates the eta engine and is cross-checked against brute-force basis
// enumeration by the in-package property tests.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcr/internal/design"
	"tcr/internal/lp"
	"tcr/internal/topo"
)

const (
	objEquivTol  = 1e-9 // cross-engine objective agreement
	dualEquivTol = 1e-6 // cross-engine dual agreement (degeneracy headroom)
	certTol      = 1e-6 // strong-duality certificate slack
)

// randModel builds a bounded random LE-form minimization. Objectives are
// drawn negative-leaning so the box bounds bind and the LP is never
// unbounded; coefficients are quarter-integers for reproducible arithmetic.
func randModel(rng *rand.Rand) (*lp.Model, []float64) {
	n := 3 + rng.Intn(6)
	mm := 2 + rng.Intn(5)
	model := lp.NewModel()
	vars := make([]lp.VarID, n)
	for j := 0; j < n; j++ {
		vars[j] = model.AddVar(math.Round(20*(rng.Float64()-0.6))/4, "")
	}
	var rhs []float64
	for i := 0; i < mm; i++ {
		terms := make([]lp.Term, 0, n)
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, lp.Term{Var: vars[j], Coef: math.Round(8*(rng.Float64()-0.3)) / 2})
			}
		}
		b := math.Round(10 * rng.Float64())
		model.AddRow(terms, lp.LE, b, "")
		rhs = append(rhs, b)
	}
	for j := 0; j < n; j++ {
		model.AddRow([]lp.Term{{Var: vars[j], Coef: 1}}, lp.LE, 10, "")
		rhs = append(rhs, 10)
	}
	return model, rhs
}

// checkAgree compares an eta-engine solution against the dense oracle's and
// verifies each solution's strong-duality certificate y.b == obj. When
// exactDuals is set the dual vectors must also agree componentwise — valid
// on the random suites, where the cost jitter makes the optimal basis
// essentially unique. The heavily degenerate design LPs have whole faces of
// optimal dual bases, so there the engines may legitimately return different
// certificates and only the certificate identity y.b == obj is required.
func checkAgree(t *testing.T, tag string, eta, dense *lp.Solution, rhs []float64, exactDuals bool) {
	t.Helper()
	if eta.Status != dense.Status {
		t.Fatalf("%s: status eta=%v dense=%v", tag, eta.Status, dense.Status)
	}
	if eta.Status != lp.Optimal {
		return
	}
	if d := math.Abs(eta.Objective - dense.Objective); d > objEquivTol {
		t.Fatalf("%s: objective eta=%v dense=%v (diff %v)", tag, eta.Objective, dense.Objective, d)
	}
	if exactDuals {
		for i := range eta.Dual {
			if d := math.Abs(eta.Dual[i] - dense.Dual[i]); d > dualEquivTol {
				t.Fatalf("%s: dual[%d] eta=%v dense=%v (diff %v)", tag, i, eta.Dual[i], dense.Dual[i], d)
			}
		}
	}
	if rhs == nil {
		return
	}
	for name, sol := range map[string]*lp.Solution{"eta": eta, "dense": dense} {
		var yb float64
		for i, b := range rhs {
			yb += sol.Dual[i] * b
		}
		scale := 1 + math.Abs(sol.Objective)
		if d := math.Abs(yb - sol.Objective); d > certTol*scale {
			t.Fatalf("%s: %s duality gap y.b=%v obj=%v", tag, name, yb, sol.Objective)
		}
	}
}

// pair builds an eta solver and a dense solver over the same model.
func pair(m *lp.Model) (*lp.Solver, *lp.Solver) {
	eta := lp.NewSolver(m)
	eta.SetEngine(lp.EngineEta)
	dense := lp.NewSolver(m)
	dense.SetEngine(lp.EngineDense)
	return eta, dense
}

func TestEngineEquivRandom(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 80
	}
	rng := rand.New(rand.NewSource(1729))
	for trial := 0; trial < trials; trial++ {
		model, rhs := randModel(rng)
		eta, dense := pair(model)
		etaSol, err := eta.Solve()
		if err != nil {
			t.Fatalf("trial %d eta: %v", trial, err)
		}
		denseSol, err := dense.Solve()
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		checkAgree(t, "random", etaSol, denseSol, rhs, true)
	}
}

// TestEngineEquivCutLoop drives both engines through the same cutting-plane
// episode: every round adds the cut most violated at the eta solution to
// BOTH solvers, so the engines stay on the same LP while each warm-starts
// from its own basis.
func TestEngineEquivCutLoop(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 12
	}
	rng := rand.New(rand.NewSource(5151))
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(4)
		model := lp.NewModel()
		vars := make([]lp.VarID, n)
		for j := 0; j < n; j++ {
			vars[j] = model.AddVar(-1-rng.Float64(), "")
		}
		rhs := make([]float64, 0, n+8)
		for j := 0; j < n; j++ {
			model.AddRow([]lp.Term{{Var: vars[j], Coef: 1}}, lp.LE, 5, "")
			rhs = append(rhs, 5)
		}
		type cut struct {
			terms []lp.Term
			rhs   float64
		}
		pool := make([]cut, 14)
		for k := range pool {
			terms := make([]lp.Term, 0, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, lp.Term{Var: vars[j], Coef: 1 + rng.Float64()})
				}
			}
			pool[k] = cut{terms, 4 + 6*rng.Float64()}
		}
		eta, dense := pair(model)
		etaSol, err := eta.Solve()
		if err != nil {
			t.Fatal(err)
		}
		denseSol, err := dense.Solve()
		if err != nil {
			t.Fatal(err)
		}
		checkAgree(t, "cutloop-base", etaSol, denseSol, rhs, true)
		for round := 0; round < 7; round++ {
			bestViol, bestIdx := 1e-7, -1
			for k, c := range pool {
				var act float64
				for _, tm := range c.terms {
					act += tm.Coef * etaSol.X[tm.Var]
				}
				if v := act - c.rhs; v > bestViol {
					bestViol, bestIdx = v, k
				}
			}
			if bestIdx < 0 {
				break
			}
			eta.AddCut(pool[bestIdx].terms, lp.LE, pool[bestIdx].rhs)
			dense.AddCut(pool[bestIdx].terms, lp.LE, pool[bestIdx].rhs)
			rhs = append(rhs, pool[bestIdx].rhs)
			if etaSol, err = eta.Solve(); err != nil {
				t.Fatal(err)
			}
			if denseSol, err = dense.Solve(); err != nil {
				t.Fatal(err)
			}
			checkAgree(t, "cutloop", etaSol, denseSol, rhs, true)
		}
	}
}

// checkBoundedDuality verifies the strong-duality identity of an LP whose
// variables all carry finite upper bounds,
//
//	obj == y.b + sum_j min(0, d_j)*ub_j,   d_j = c_j - y.A_j,
//
// against the model's objective, right-hand sides and bounds, with rows[i]
// the terms row i was built from.
func checkBoundedDuality(t *testing.T, tag string, m *lp.Model, rows [][]lp.Term, sol *lp.Solution) {
	t.Helper()
	d := make([]float64, m.NumVars())
	for j := range d {
		d[j] = m.Obj(lp.VarID(j))
	}
	dual := 0.0
	for i, terms := range rows {
		y := sol.Dual[i]
		dual += y * m.RHS(lp.RowID(i))
		for _, tm := range terms {
			d[tm.Var] -= y * tm.Coef
		}
	}
	for j, dj := range d {
		if dj < 0 {
			dual += dj * m.Upper(lp.VarID(j))
		}
	}
	if gap := math.Abs(dual - sol.Objective); gap > certTol*(1+math.Abs(sol.Objective)) {
		t.Fatalf("%s: duality gap: dual=%v obj=%v (gap %v)", tag, dual, sol.Objective, gap)
	}
}

// TestEngineEquivBounded pits the engines against each other on the bounded
// simplex: random LPs where capacities live as variable upper bounds (with
// bound-flip ratio tests and at-upper nonbasic states) instead of explicit
// rows, both cold and through a SetVarUpper warm-tightening episode.
func TestEngineEquivBounded(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(6)
		mm := 2 + rng.Intn(4)
		model := lp.NewModel()
		vars := make([]lp.VarID, n)
		ubs := make([]float64, n)
		for j := 0; j < n; j++ {
			vars[j] = model.AddVar(math.Round(20*(rng.Float64()-0.6))/4, "")
			ubs[j] = 2 + math.Round(16*rng.Float64())/2
			model.SetUpper(vars[j], ubs[j])
		}
		rows := make([][]lp.Term, mm)
		for i := range rows {
			terms := make([]lp.Term, 0, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					terms = append(terms, lp.Term{Var: vars[j], Coef: math.Round(8*(rng.Float64()-0.3)) / 2})
				}
			}
			rel := lp.LE
			if rng.Float64() < 0.2 {
				rel = lp.GE
			}
			model.AddRow(terms, rel, math.Round(10*rng.Float64()), "")
			rows[i] = terms
		}
		eta, dense := pair(model)
		etaSol, err := eta.Solve()
		if err != nil {
			t.Fatalf("trial %d eta: %v", trial, err)
		}
		denseSol, err := dense.Solve()
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		// rhs=nil: with binding variable bounds the plain y.b == obj identity
		// no longer holds (the bound multipliers contribute), so each engine's
		// certificate is checked in its bounded form instead.
		checkAgree(t, "bounded-cold", etaSol, denseSol, nil, true)
		if etaSol.Status == lp.Optimal {
			checkBoundedDuality(t, "bounded-cold eta", model, rows, etaSol)
			checkBoundedDuality(t, "bounded-cold dense", model, rows, denseSol)
			if v := model.MaxViolation(etaSol.X); v > 1e-6 {
				t.Fatalf("trial %d: eta X violates bounds/rows by %v", trial, v)
			}
		}
		// Warm episode: tighten a random variable's bound and re-solve, four
		// times, mirroring the stage-2 w-cap usage in the design layer.
		for step := 0; step < 4; step++ {
			j := rng.Intn(n)
			ubs[j] = math.Max(0, ubs[j]-1-math.Round(4*rng.Float64())/2)
			eta.SetVarUpper(vars[j], ubs[j])
			dense.SetVarUpper(vars[j], ubs[j])
			if etaSol, err = eta.Solve(); err != nil {
				t.Fatalf("trial %d step %d eta: %v", trial, step, err)
			}
			if denseSol, err = dense.Solve(); err != nil {
				t.Fatalf("trial %d step %d dense: %v", trial, step, err)
			}
			checkAgree(t, "bounded-warm", etaSol, denseSol, nil, true)
			if etaSol.Status != lp.Optimal {
				break
			}
			// SetVarUpper mutates the solver, not the model, so check the
			// tightened bounds directly rather than via MaxViolation.
			for jj := 0; jj < n; jj++ {
				if etaSol.X[jj] > ubs[jj]+1e-6 {
					t.Fatalf("trial %d step %d: x[%d]=%v above tightened bound %v",
						trial, step, jj, etaSol.X[jj], ubs[jj])
				}
			}
		}
	}
}

// TestEngineEquivRHSSweep mirrors the Pareto-sweep usage: both engines track
// the same swept equality right-hand side via SetRHS warm starts.
func TestEngineEquivRHSSweep(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(3)
		model := lp.NewModel()
		vars := make([]lp.VarID, n)
		for j := 0; j < n; j++ {
			vars[j] = model.AddVar(rng.Float64()*2, "")
		}
		terms := make([]lp.Term, n)
		for j := 0; j < n; j++ {
			terms[j] = lp.Term{Var: vars[j], Coef: 1}
		}
		sweepRow := model.AddRow(terms, lp.EQ, 1, "L")
		for j := 0; j < n; j++ {
			model.AddRow([]lp.Term{{Var: vars[j], Coef: 1}}, lp.LE, 3, "")
		}
		eta, dense := pair(model)
		if _, err := eta.Solve(); err != nil {
			t.Fatal(err)
		}
		if _, err := dense.Solve(); err != nil {
			t.Fatal(err)
		}
		for _, L := range []float64{2, 5, 9, 3.5, 12, 0.5} {
			eta.SetRHS(int(sweepRow), L)
			dense.SetRHS(int(sweepRow), L)
			etaSol, err := eta.Solve()
			if err != nil {
				t.Fatal(err)
			}
			denseSol, err := dense.Solve()
			if err != nil {
				t.Fatal(err)
			}
			checkAgree(t, "rhs-sweep", etaSol, denseSol, nil, true)
		}
	}
}

// TestEngineEquivDesignLP pits the engines against each other on the real
// worst-case design LP: the k=4 (81-row) and k=6 (325-row) flow formulations
// with a locality budget, growing through rounds of adversarial permutation
// cuts, with interleaved SetRHS locality moves — exactly the mutation mix the
// design loops issue.
func TestEngineEquivDesignLP(t *testing.T) {
	for _, k := range []int{4, 6} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { engineEquivDesignLP(t, k) })
	}
}

func engineEquivDesignLP(t *testing.T, k int) {
	rounds := 12
	if testing.Short() {
		rounds = 5
	}
	tor := topo.NewTorus(k)
	fl := design.NewFlowLP(tor, true, design.Options{})
	model := fl.Model()
	// Track the full right-hand side alongside the solvers (base rows from
	// the model, cuts at 0, locality moves mirrored) so every round can
	// verify the strong-duality certificate y.b == obj.
	rhs := make([]float64, model.NumRows())
	for r := range rhs {
		rhs[r] = model.RHS(lp.RowID(r))
	}
	eta, dense := pair(model)
	etaSol, err := eta.Solve()
	if err != nil {
		t.Fatal(err)
	}
	denseSol, err := dense.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "design-base", etaSol, denseSol, rhs, false)

	rng := rand.New(rand.NewSource(7))
	hs := []float64{1.5, 1.2, 2.0, 1.35}
	hrow, _ := fl.LocalityRow()
	for round := 0; round < rounds; round++ {
		terms := fl.PermCutTerms(tor.Chan(0, 0), rng.Perm(tor.N), fl.WVar())
		eta.AddCut(terms, lp.LE, 0)
		dense.AddCut(terms, lp.LE, 0)
		rhs = append(rhs, 0)
		if etaSol, err = eta.Solve(); err != nil {
			t.Fatal(err)
		}
		if denseSol, err = dense.Solve(); err != nil {
			t.Fatal(err)
		}
		checkAgree(t, "design-cut", etaSol, denseSol, rhs, false)
		if round%3 == 2 {
			h := hs[(round/3)%len(hs)] * float64(tor.N) * tor.MeanMinDist()
			eta.SetRHS(int(hrow), h)
			dense.SetRHS(int(hrow), h)
			rhs[int(hrow)] = h
			if etaSol, err = eta.Solve(); err != nil {
				t.Fatal(err)
			}
			if denseSol, err = dense.Solve(); err != nil {
				t.Fatal(err)
			}
			checkAgree(t, "design-rhs", etaSol, denseSol, rhs, false)
		}
	}
}
