package tcr

import (
	"context"
	"reflect"
	"testing"

	"tcr/internal/eval"
)

// The parallel engine's contract is bit-for-bit determinism: every worker
// count must produce the same Flow tables, the same worst-case certificate,
// and the same Pareto points (the sweeps share one warm-started LP at every
// width; workers only parallelize each round's oracles). These tests pin
// that contract on k=4 and k=6; `make race` runs them under the race
// detector.

func flowWithWorkers(t *testing.T, tor *Torus, alg Algorithm, workers int) *Flow {
	t.Helper()
	f, err := eval.FromAlgorithmCtx(context.Background(), tor, alg, workers)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParallelFlowDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{4, 6} {
		tor := NewTorus(k)
		for _, alg := range []Algorithm{DOR(), IVAL()} {
			base := flowWithWorkers(t, tor, alg, 1)
			g1, p1, err := base.WorstCaseCtx(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				got := flowWithWorkers(t, tor, alg, w)
				if !reflect.DeepEqual(base.X, got.X) {
					t.Fatalf("k=%d %s: flow table differs between workers=1 and workers=%d", k, alg.Name(), w)
				}
				gw, pw, err := got.WorstCaseCtx(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				if gw != g1 {
					t.Fatalf("k=%d %s workers=%d: gamma_wc=%v, want the sequential %v bit-for-bit",
						k, alg.Name(), w, gw, g1)
				}
				if !reflect.DeepEqual(pw, p1) {
					t.Fatalf("k=%d %s workers=%d: adversarial permutation differs from sequential", k, alg.Name(), w)
				}
			}
		}
	}
}

// TestParallelConcurrencyKnob pins the facade knob: tcr.Concurrency feeds
// every entry point, and a cached Report at any width equals a fresh
// sequential one.
func TestParallelConcurrencyKnob(t *testing.T) {
	tor := NewTorus(4)
	saved := Concurrency
	defer func() { Concurrency = saved }()

	Concurrency = 1
	seq := mustReport(t, tor, IVAL(), nil)
	Concurrency = 4
	par := mustReport(t, tor, IVAL(), nil)
	if seq != par {
		t.Fatalf("Report differs across Concurrency settings:\nseq %+v\npar %+v", seq, par)
	}
}

func paretoWithWorkers(t *testing.T, tor *Torus, hs []float64, workers int) []ParetoPoint {
	t.Helper()
	pts, err := WorstCaseParetoCurve(tor, hs, DesignOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(hs) {
		t.Fatalf("workers=%d: %d points for %d locality bounds", workers, len(pts), len(hs))
	}
	for i, p := range pts {
		if p.HNorm != hs[i] {
			t.Fatalf("workers=%d: point %d out of order: HNorm=%v, want %v", workers, i, p.HNorm, hs[i])
		}
	}
	return pts
}

func TestParallelParetoDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three LP sweeps; skipped in -short")
	}
	tor := NewTorus(4)
	hs := []float64{1.0, 1.5, 2.0}

	seq := paretoWithWorkers(t, tor, hs, 1)
	for _, w := range []int{2, 4} {
		got := paretoWithWorkers(t, tor, hs, w)
		for i := range hs {
			if got[i] != seq[i] {
				t.Fatalf("point %d: workers=%d %+v != workers=1 %+v bit-for-bit", i, w, got[i], seq[i])
			}
		}
	}
}
