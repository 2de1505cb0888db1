package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"tcr/internal/eval"
	"tcr/internal/routing"
	"tcr/internal/sim"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// evalWant is the k=8 Table 1 evaluation as committed in
// results/eval_k8.txt (`tcr eval -k 8 -samples 100`, sample seed 1): H
// normalized, worst-case fraction, average-case fraction. The prose table
// in EXPERIMENTS.md E2 carries older ROMM/RLB/RLBth numbers; the committed
// output is what the code produces. H and the worst case do not depend on
// the traffic sample; the average case moves by under 0.005 across sample
// seeds, so it is checked to avgTol.
var evalWant = []struct {
	alg           string
	h, wc, avg    float64
	avgIsAnalytic bool // VAL makes every pattern uniform: exactly 0.5
}{
	{alg: "DOR", h: 1.0000, wc: 0.2857, avg: 0.7983},
	{alg: "ROMM", h: 1.0000, wc: 0.2083, avg: 0.8424},
	{alg: "RLB", h: 1.3125, wc: 0.3109, avg: 0.7011},
	{alg: "RLBth", h: 1.2188, wc: 0.2963, avg: 0.7425},
	{alg: "VAL", h: 2.0000, wc: 0.5000, avg: 0.5000, avgIsAnalytic: true},
	{alg: "IVAL", h: 1.6133, wc: 0.5000, avg: 0.5137},
}

const (
	evalTol = 1e-4
	avgTol  = 0.01
)

// satCase is one saturation sweep and the accepted-throughput band its
// plateau must land in (EXPERIMENTS.md E8 measured 0.51, 0.25-0.27, 0.35
// and 0.36-0.38 with longer windows).
type satCase struct {
	alg, pattern string
	lo, hi       float64
}

var satCases = []satCase{
	{"DOR", "uniform", 0.45, 0.57},
	{"DOR", "tornado", 0.22, 0.31},
	{"IVAL", "uniform", 0.31, 0.40},
	{"IVAL", "tornado", 0.32, 0.43},
}

// satRates and the windows below size one sweep to about a second on
// two cores; E8's 3000+10000-cycle windows would take four times longer.
var satRates = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.8}

const (
	satWarmup  = 1000
	satMeasure = 3000
	evalSample = 100
)

// evalSim evaluates the six Table 1 algorithms at k=8 with the average
// case over a 100-matrix sample, then finds simulated saturation for IVAL
// and DOR under uniform and tornado traffic.
type evalSim struct {
	t       *topo.Torus
	seed    int64
	samples []*traffic.Matrix
	tornado *traffic.Matrix
}

func setupEvalSim(ctx context.Context, opt options) (instance, error) {
	t := topo.NewTorus(8)
	w := &evalSim{t: t, seed: opt.seed, samples: traffic.Sample(t.N, evalSample, opt.seed), tornado: traffic.Tornado(t)}
	// Warm-up at k=4: one evaluation and one short simulation.
	if _, _, err := report(ctx, nil, topo.NewTorus(4), routing.DOR{}); err != nil {
		return nil, err
	}
	if _, err := sim.Simulate(ctx, sim.Config{K: 4, Rate: 0.3, Seed: opt.seed, Alg: routing.DOR{}, Warmup: 200, Measure: 500}); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *evalSim) unit(ctx context.Context, tr *tracer) (unitResult, error) {
	var u unitResult
	netCap := eval.NetworkCapacity(w.t)
	for _, want := range evalWant {
		alg, ok := routing.ByName(want.alg)
		if !ok {
			return u, fmt.Errorf("unknown algorithm %q", want.alg)
		}
		end := tr.span("eval.report_s")
		start := time.Now()
		f, gamma, err := report(ctx, tr, w.t, alg)
		var ac eval.AvgCaseResult
		if err == nil {
			endAvg := tr.span("eval.avgcase_s")
			ac, err = f.AvgCaseCtx(ctx, w.samples, 0)
			endAvg()
		}
		d := time.Since(start)
		end()
		u.wall += d
		u.calls = append(u.calls, call{class: "report", d: d, err: err, check: func(*tracer) error {
			if err := near(want.alg+" (k=%d) H", w.t.K, f.HNorm(), want.h, evalTol); err != nil {
				return err
			}
			if err := near(want.alg+" (k=%d) worst-case fraction", w.t.K, 1/gamma/netCap, want.wc, evalTol); err != nil {
				return err
			}
			tol := avgTol
			if want.avgIsAnalytic {
				tol = evalTol
			}
			return near(want.alg+" (k=%d) average-case fraction", w.t.K, ac.ApproxThroughput/netCap, want.avg, tol)
		}})
	}
	var simWall time.Duration
	cycles, points := 0, 0
	for _, sc := range satCases {
		alg, ok := routing.ByName(sc.alg)
		if !ok {
			return u, fmt.Errorf("unknown algorithm %q", sc.alg)
		}
		var pat *traffic.Matrix // nil is uniform
		if sc.pattern == "tornado" {
			pat = w.tornado
		}
		cfg := sim.Config{
			K: w.t.K, Alg: alg, Pattern: pat, Seed: w.seed,
			VCsPerClass: 3, BufDepth: 8, Warmup: satWarmup, Measure: satMeasure,
		}
		start := time.Now()
		res, err := sim.FindSaturation(ctx, cfg, satRates)
		d := time.Since(start)
		u.wall += d
		simWall += d
		if err == nil {
			points += len(res.Curve)
			cycles += len(res.Curve) * (satWarmup + satMeasure)
		}
		u.calls = append(u.calls, call{class: "saturation", d: d, err: err, check: func(*tracer) error {
			return checkSaturation(sc, res)
		}})
	}
	if points > 0 {
		tr.set("sim.point_s", simWall.Seconds()/float64(points))
		tr.set("sim.cycles", float64(cycles))
		tr.set("sim.points", float64(points))
		tr.set("sim.cycles_per_s", float64(cycles)/simWall.Seconds())
		u.figures = append(u.figures, figure{"sim_cycles_per_s", "1/s", float64(cycles) / simWall.Seconds()})
	}
	u.figures = append(u.figures, figure{"eval_s", "s", (u.wall - simWall).Seconds()})
	return u, ctx.Err()
}

func checkSaturation(sc satCase, res sim.SaturationResult) error {
	switch {
	case res.Deadlocked:
		return fmt.Errorf("%s/%s deadlocked", sc.alg, sc.pattern)
	case res.Partial:
		return fmt.Errorf("%s/%s partial sweep: %s", sc.alg, sc.pattern, res.Reason)
	case math.IsNaN(res.Throughput) || res.Throughput < sc.lo || res.Throughput > sc.hi:
		return fmt.Errorf("%s/%s saturation %.4f outside [%.2f, %.2f]", sc.alg, sc.pattern, res.Throughput, sc.lo, sc.hi)
	}
	return nil
}

func (w *evalSim) layerExtras(context.Context, *tracer) error { return nil }

func (w *evalSim) close() error { return nil }
