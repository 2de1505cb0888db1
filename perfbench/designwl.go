package main

// The two LP design workloads. Every design entry point gets the zero
// design.Options, which is what cmd/tcr passes.

import (
	"context"
	"fmt"
	"math"
	"time"

	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
)

// figure1Theta is the k=6 Figure 1 curve at the benchmark's locality
// budgets, as printed by `tcr figure1 -k 6` to six decimals. The
// shared-warm and parallel sweep paths differ in the last ulps, so the
// check is a tolerance, never bit equality.
var figure1Theta = []struct{ h, theta float64 }{
	{1.0, 0.300000},
	{1.125, 0.374260},
	{1.25, 0.436364},
	{1.375, 0.487081},
}

const figure1Tol = 1e-6

// figure1 runs the k=6 worst-case Pareto sweep.
type figure1 struct{ t *topo.Torus }

func setupFigure1(ctx context.Context, _ options) (instance, error) {
	// Warm-up: a k=4 sweep pages in the solver and grows the heap before
	// the first timed k=6 sweep.
	if _, err := design.WorstCaseParetoCurveCtx(ctx, topo.NewTorus(4), []float64{1.0, 1.25, 1.5}, design.Options{}); err != nil {
		return nil, fmt.Errorf("k=4 warm-up sweep: %w", err)
	}
	return &figure1{t: topo.NewTorus(6)}, nil
}

func (w *figure1) unit(ctx context.Context, tr *tracer) (unitResult, error) {
	hs := make([]float64, len(figure1Theta))
	for i, p := range figure1Theta {
		hs[i] = p.h
	}
	end := tr.span("design.pareto_s")
	start := time.Now()
	pts, err := design.WorstCaseParetoCurveCtx(ctx, w.t, hs, design.Options{})
	d := time.Since(start)
	end()
	c := call{class: "sweep", d: d, err: err, check: func(*tracer) error { return checkFigure1(pts) }}
	return unitResult{calls: []call{c}, wall: d}, ctx.Err()
}

func checkFigure1(pts []design.ParetoPoint) error {
	if len(pts) != len(figure1Theta) {
		return fmt.Errorf("sweep returned %d points, want %d", len(pts), len(figure1Theta))
	}
	for i, want := range figure1Theta {
		if got := pts[i]; math.Abs(got.HNorm-want.h) > figure1Tol || math.Abs(got.Theta-want.theta) > figure1Tol {
			return fmt.Errorf("point %d: (L=%g, theta=%.9f), want (%g, %.6f)", i, got.HNorm, got.Theta, want.h, want.theta)
		}
	}
	return nil
}

func (w *figure1) layerExtras(_ context.Context, tr *tracer) error {
	end := tr.span("design.build_s")
	design.NewFlowLP(w.t, true, design.Options{})
	end()
	return nil
}

func (w *figure1) close() error { return nil }

// figure4Want is Figure 4 at k=4 and k=5: the optimal locality at maximum
// worst-case throughput, IVAL's locality, and (k=5 only) 2TURN's, from
// `tcr figure4 -kmin 4 -kmax 5`.
var figure4Want = []struct {
	k                   int
	optimal, ival, turn float64
}{
	{4, 1.3500, 1.5312, 0},
	{5, 1.5600, 1.6000, 1.5787},
}

const (
	figure4Tol = 1e-4
	// verifyTol bounds the re-evaluated worst case against the design's
	// own report: the same flow through the same oracle, so only the
	// parallel reduction order may differ.
	verifyTol = 1e-9
	// gammaRelTol bounds how far 2TURN's worst-case load may sit from the
	// unrestricted optimum's; both carry the designs' 1e-6 stage-2 slack.
	gammaRelTol = 1e-5
)

// figure4 runs the Figure 4 designs: the lexicographic optimum and IVAL at
// k=4 and k=5, and the 2TURN design at k=5. The 2TURN design at k=4 (about
// 15 s alone) is left out so a unit fits the run length; see NOTES.md.
type figure4 struct{ tori map[int]*topo.Torus }

func setupFigure4(ctx context.Context, _ options) (instance, error) {
	t3 := topo.NewTorus(3)
	if _, err := design.MinLocalityAtWorstCaseCtx(ctx, t3, design.Options{}); err != nil {
		return nil, fmt.Errorf("k=3 warm-up design: %w", err)
	}
	if _, err := design.DesignTwoTurnCtx(ctx, t3, design.Options{}); err != nil {
		return nil, fmt.Errorf("k=3 warm-up 2TURN: %w", err)
	}
	return &figure4{tori: map[int]*topo.Torus{4: topo.NewTorus(4), 5: topo.NewTorus(5)}}, nil
}

func (w *figure4) unit(ctx context.Context, tr *tracer) (unitResult, error) {
	var u unitResult
	timed := func(class, span string, fn func() error) {
		end := tr.span(span)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		end()
		u.wall += d
		u.calls = append(u.calls, call{class: class, d: d, err: err})
	}
	for _, want := range figure4Want {
		t := w.tori[want.k]
		var opt *design.Result
		timed("minloc", "design.minloc_s", func() (err error) {
			opt, err = design.MinLocalityAtWorstCaseCtx(ctx, t, design.Options{})
			return err
		})
		u.calls[len(u.calls)-1].check = func(tr *tracer) error {
			if !opt.Certified {
				return fmt.Errorf("k=%d optimal design uncertified: %s", want.k, opt.Reason)
			}
			tr.add("design.rounds", float64(opt.Rounds))
			// On the certified potential-LP path Iterations holds the last
			// round's pivots, not the total (see TestIterationsSemantics).
			tr.add("design.final_pivots", float64(opt.Iterations))
			if err := verifyGamma(ctx, tr, opt.Flow, opt.GammaWC); err != nil {
				return fmt.Errorf("k=%d optimal: %w", want.k, err)
			}
			return near("k=%d optimal locality", want.k, opt.HNorm, want.optimal, figure4Tol)
		}
		var ival *eval.Flow
		var ivalGamma float64
		timed("ival", "eval.report_s", func() (err error) {
			ival, ivalGamma, err = report(ctx, tr, t, routing.IVAL{})
			return err
		})
		u.calls[len(u.calls)-1].check = func(*tracer) error {
			// IVAL keeps the optimal worst case, half of capacity.
			if wc := 1 / ivalGamma / eval.NetworkCapacity(t); math.Abs(wc-0.5) > figure4Tol {
				return fmt.Errorf("k=%d IVAL worst-case fraction %.6f, want 0.5", want.k, wc)
			}
			return near("k=%d IVAL locality", want.k, ival.HNorm(), want.ival, figure4Tol)
		}
		if want.turn <= 0 {
			continue
		}
		var tt *design.PathResult
		timed("twoturn", "design.twoturn_s", func() (err error) {
			tt, err = design.DesignTwoTurnCtx(ctx, t, design.Options{})
			return err
		})
		u.calls[len(u.calls)-1].check = func(tr *tracer) error {
			tr.add("design.rounds", float64(tt.Rounds))
			if err := verifyGamma(ctx, tr, tt.Flow, tt.GammaWC); err != nil {
				return fmt.Errorf("k=%d 2TURN: %w", want.k, err)
			}
			if opt == nil {
				return fmt.Errorf("k=%d 2TURN has no optimal design to compare with", want.k)
			}
			if math.Abs(tt.GammaWC-opt.GammaWC) > gammaRelTol*opt.GammaWC {
				return fmt.Errorf("k=%d 2TURN gamma_wc %.9f, optimal %.9f", want.k, tt.GammaWC, opt.GammaWC)
			}
			return near("k=%d 2TURN locality", want.k, tt.HNorm, want.turn, figure4Tol)
		}
	}
	return u, ctx.Err()
}

// report is the closed-form half of tcr.Report without its process-wide
// flow cache, so every unit evaluates afresh: the flow table, then the
// exact worst case.
func report(ctx context.Context, tr *tracer, t topo.Topology, alg routing.Algorithm) (*eval.Flow, float64, error) {
	end := tr.span("eval.flow_s")
	f, err := eval.FromAlgorithmCtx(ctx, t, alg, 0)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = tr.span("eval.worstcase_s")
	gamma, _, err := f.WorstCaseCtx(ctx, 0)
	end()
	return f, gamma, err
}

// verifyGamma re-evaluates a designed flow's worst case with the Hungarian
// oracle, independently of the design loop that certified it.
func verifyGamma(ctx context.Context, tr *tracer, f *eval.Flow, claimed float64) error {
	end := tr.span("matching.verify_s")
	got, _, err := f.WorstCaseCtx(ctx, 0)
	end()
	if err != nil {
		return err
	}
	if math.Abs(got-claimed) > verifyTol*math.Max(1, claimed) {
		return fmt.Errorf("re-evaluated gamma_wc %.12f, design reported %.12f", got, claimed)
	}
	return nil
}

func near(what string, k int, got, want, tol float64) error {
	if math.Abs(got-want) > tol {
		return fmt.Errorf(what+" %.6f, want %.4f", k, got, want)
	}
	return nil
}

func (w *figure4) layerExtras(_ context.Context, tr *tracer) error {
	for _, k := range []int{4, 5} {
		end := tr.span("design.build_s")
		design.NewFlowLP(w.tori[k], false, design.Options{})
		end()
	}
	end := tr.span("design.build_s")
	_, err := design.NewPathLP(w.tori[5], paths.TwoTurnPaths, nil, false, design.Options{})
	end()
	return err
}

func (w *figure4) close() error { return nil }
