package lp_test

import (
	"fmt"
	"testing"

	"tcr/internal/lp"
)

// TestPivotSearchMatchesReferenceDesignLP checks the bucketed pivot search
// against the exhaustive reference scan at every elimination step of the
// real design-LP bases: the k=4 and the cut-laden k=6 flow formulations
// (the BenchmarkFactorize basis), at the cold optimum and after each
// warm-started cut.
func TestPivotSearchMatchesReferenceDesignLP(t *testing.T) {
	for _, k := range []int{4, 6} {
		bl := designBenchLP(k, 6)
		s := lp.NewSolver(bl.fl.Model())
		s.SetEngine(lp.EngineEta)
		check := func(stage string) {
			t.Helper()
			sel, _, err := s.CheckPivotOrder()
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, stage, err)
			}
			if sel < s.NumRows() {
				t.Fatalf("k=%d %s: %d selections for %d rows", k, stage, sel, s.NumRows())
			}
			if err := s.Refresh(); err != nil {
				t.Fatalf("k=%d %s: refresh: %v", k, stage, err)
			}
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		check("cold optimum")
		for i, c := range bl.cuts {
			s.AddCut(c, lp.LE, 0)
			if _, err := s.Solve(); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("after cut %d", i+1))
		}
	}
}
