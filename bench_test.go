package tcr

// One benchmark per figure of the paper's evaluation, plus ablation benches
// for the design choices called out in DESIGN.md. The figure benches run the
// same code paths as cmd/tcr's figure subcommands at reduced scale (smaller
// radix / sample counts) so that `go test -bench . -benchmem` terminates in
// minutes; the full-scale k=8 tables are produced by the CLI and recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"

	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/routing"
	"tcr/internal/sim"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// BenchmarkFigure1ParetoCurve regenerates Figure 1's optimal tradeoff curve
// (worst-case throughput vs locality) on a 4-ary 2-cube.
func BenchmarkFigure1ParetoCurve(b *testing.B) {
	t := NewTorus(4)
	hs := []float64{1.0, 1.25, 1.5, 1.75, 2.0}
	for i := 0; i < b.N; i++ {
		if _, err := WorstCaseParetoCurve(t, hs, DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1AlgorithmPoints evaluates every closed-form algorithm's
// Figure 1 point (locality, exact worst-case throughput) at full scale k=8.
func BenchmarkFigure1AlgorithmPoints(b *testing.B) {
	t := NewTorus(8)
	algs := []Algorithm{DOR(), ROMM(), RLB(), RLBth(), VAL(), IVAL()}
	for i := 0; i < b.N; i++ {
		for _, alg := range algs {
			if _, err := Report(t, alg, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure4RadixSweep regenerates Figure 4's locality-vs-radix series
// (optimal, IVAL, 2TURN) for k = 3..4 (larger radices belong to the CLI,
// where minutes-long LP solves are acceptable).
func BenchmarkFigure4RadixSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for k := 3; k <= 4; k++ {
			t := NewTorus(k)
			if _, err := OptimalLocalityAtMaxWorstCase(t, DesignOptions{}); err != nil {
				b.Fatalf("k=%d: %v", k, err)
			}
			if _, err := Report(t, IVAL(), nil); err != nil {
				b.Fatalf("k=%d IVAL: %v", k, err)
			}
			if _, err := Design2Turn(t, DesignOptions{}); err != nil {
				b.Fatalf("k=%d 2TURN: %v", k, err)
			}
		}
	}
}

// BenchmarkFigure5Interpolation regenerates Figure 5's interpolated-routing
// curve (DOR <-> IVAL) with exact worst-case evaluation per point, k=6.
func BenchmarkFigure5Interpolation(b *testing.B) {
	t := NewTorus(6)
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if _, err := Report(t, Interpolate(IVAL(), DOR(), alpha), nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure6AvgCase regenerates Figure 6's average-case tradeoff curve
// on a 4-ary 2-cube with a reduced sample.
func BenchmarkFigure6AvgCase(b *testing.B) {
	t := NewTorus(4)
	samples := SampleTraffic(t, 10, 1)
	hs := []float64{1.0, 1.5, 2.0}
	for i := 0; i < b.N; i++ {
		if _, err := AvgCaseParetoCurve(t, samples, hs, DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesign2Turn measures the two-stage 2TURN construction (k=4).
func BenchmarkDesign2Turn(b *testing.B) {
	t := NewTorus(4)
	for i := 0; i < b.N; i++ {
		if _, err := Design2Turn(t, DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesign2TurnA measures the 2TURNA construction (Section 5.4) on a
// reduced sample, k=4.
func BenchmarkDesign2TurnA(b *testing.B) {
	t := NewTorus(4)
	samples := SampleTraffic(t, 8, 3)
	for i := 0; i < b.N; i++ {
		if _, err := Design2TurnA(t, samples, DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAvgApproximation measures Section 3.3's approximation-quality
// computation: exact sampled mean throughput vs the arithmetic-mean-load
// reciprocal, k=6 with 20 samples.
func BenchmarkAvgApproximation(b *testing.B) {
	t := NewTorus(6)
	samples := SampleTraffic(t, 20, 5)
	f := Evaluate(t, IVAL())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.AvgCase(samples)
	}
}

// BenchmarkFullWorstCaseLP measures the appendix's pre-dualization LP with
// every permutation constraint explicit (k=2 ground truth).
func BenchmarkFullWorstCaseLP(b *testing.B) {
	t := topo.NewTorus(2)
	for i := 0; i < b.N; i++ {
		if _, err := design.FullWorstCaseLP(t, design.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorstCaseOracle measures the exact worst-case evaluator (pair
// load matrices + Hungarian over channel representatives) at k=8.
func BenchmarkWorstCaseOracle(b *testing.B) {
	t := NewTorus(8)
	f := Evaluate(t, IVAL())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.WorstCase()
	}
}

// BenchmarkSimulator measures flit-level simulation throughput (cycles of an
// 8-ary 2-cube under IVAL at moderate load).
func BenchmarkSimulator(b *testing.B) {
	s, err := sim.New(sim.Config{K: 8, Rate: 0.5, Seed: 1, Alg: routing.IVAL{}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(100)
	}
}

// BenchmarkFindSaturationK8 is one saturation sweep as the evalsim-k8
// benchmark workload runs it: IVAL under tornado traffic on an 8-ary
// 2-cube, 3 VCs per class, 8-flit buffers, 1000+3000-cycle windows at six
// offered rates, swept serially.
func BenchmarkFindSaturationK8(b *testing.B) {
	cfg := sim.Config{
		K: 8, Alg: routing.IVAL{}, Pattern: traffic.Tornado(topo.NewTorus(8)), Seed: 1,
		VCsPerClass: 3, BufDepth: 8, Warmup: 1000, Measure: 3000, Workers: 1,
	}
	rates := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.FindSaturation(context.Background(), cfg, rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowFromAlgorithm measures path enumeration + flow accumulation
// for the heaviest closed-form algorithm (IVAL) at k=8.
func BenchmarkFlowFromAlgorithm(b *testing.B) {
	t := NewTorus(8)
	for i := 0; i < b.N; i++ {
		_ = eval.FromAlgorithm(t, routing.IVAL{})
	}
}

// BenchmarkEvaluateWorkers measures the facade's flow evaluation (path
// enumeration + per-pair accumulation, IVAL at k=8) across worker-pool
// widths. Sharding is per source-destination pair with disjoint output rows,
// so multi-core hosts scale it near-linearly; on a single-CPU host the
// widths tie (the README's Performance section records the measured
// numbers).
func BenchmarkEvaluateWorkers(b *testing.B) {
	t := NewTorus(8)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.FromAlgorithmCtx(context.Background(), t, routing.IVAL{}, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorstCaseWorkers measures the exact worst-case oracle (Hungarian
// matchings over channel representatives, k=8) across worker-pool widths;
// the four channel directions solve concurrently.
func BenchmarkWorstCaseWorkers(b *testing.B) {
	t := NewTorus(8)
	f := Evaluate(t, IVAL())
	b.ResetTimer()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := f.WorstCaseCtx(context.Background(), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParetoCurveWorkers measures the locality-bound design sweep
// across worker-pool widths. Every width runs the same shared warm-started
// LP; the workers only parallelize each round's Hungarian oracles.
// k=4 keeps one iteration in seconds — the k=8 sweep needs hours per point
// on this pure-Go simplex (see EXPERIMENTS.md) and belongs to the CLI.
func BenchmarkParetoCurveWorkers(b *testing.B) {
	t := NewTorus(4)
	hs := []float64{1.0, 1.5, 2.0}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := WorstCaseParetoCurve(t, hs, DesignOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
