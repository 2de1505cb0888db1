//go:build lpchaos

package design

import (
	"context"
	"errors"
	"math"
	"testing"

	"tcr/internal/lp"
	"tcr/internal/topo"
)

// TestChaosRetryRebuild arms unrecoverable factorization faults on the live
// solver: the first solveRound attempt exhausts the LP recovery ladder, the
// retry rebuilds a fresh (unarmed) solver from the cut log, and the design
// must land on the clean optimum bit for bit — the rebuilt solver is
// indistinguishable from a fresh one.
func TestChaosRetryRebuild(t *testing.T) {
	tor := topo.NewTorus(4)
	clean, err := WorstCaseOptimal(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}

	p := newPotentialLP(tor, false, Options{})
	p.solver.SetChaos(&lp.ChaosScript{Seed: 3, FailFactor: 1 << 20})
	res, err := p.solveWorstCase(context.Background(), math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("uncertified after retry: %s", res.Reason)
	}
	//lint:ignore floatcmp the rebuilt-solver trajectory must equal a clean run exactly
	if res.Objective != clean.Objective || res.GammaWC != clean.GammaWC {
		t.Errorf("retried optimum (%.17g, %.17g) != clean (%.17g, %.17g)",
			res.Objective, res.GammaWC, clean.Objective, clean.GammaWC)
	}
}

// TestChaosRetryDisabled: with Retries < 0 the same fault surfaces as the
// LP's diagnosed numerical error instead of being retried.
func TestChaosRetryDisabled(t *testing.T) {
	tor := topo.NewTorus(4)
	p := newPotentialLP(tor, false, Options{Retries: -1})
	p.solver.SetChaos(&lp.ChaosScript{Seed: 3, FailFactor: 1 << 20})
	_, err := p.solveWorstCase(context.Background(), math.NaN())
	if !errors.Is(err, lp.ErrNumerical) {
		t.Fatalf("err = %v, want ErrNumerical", err)
	}
	var de *lp.DiagError
	if !errors.As(err, &de) {
		t.Fatalf("err %v carries no diagnostics", err)
	}
}

// TestChaosOracleRetry: injected separation-oracle faults are absorbed by
// the cut driver's oracle retry loop (the oracle is stateless).
func TestChaosOracleRetry(t *testing.T) {
	tor := topo.NewTorus(4)
	SetOracleFaults(2)
	defer SetOracleFaults(0)
	res, err := WorstCaseOptimal(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("certified=%v gamma_wc=%v, want certified 1.0", res.Certified, res.GammaWC)
	}
}

// TestChaosOracleRetryDisabled: with retries off the injected oracle fault
// propagates to the caller.
func TestChaosOracleRetryDisabled(t *testing.T) {
	tor := topo.NewTorus(4)
	SetOracleFaults(1)
	defer SetOracleFaults(0)
	_, err := WorstCaseOptimal(tor, Options{Retries: -1})
	if !errors.Is(err, ErrOracleFault) {
		t.Fatalf("err = %v, want ErrOracleFault", err)
	}
}
