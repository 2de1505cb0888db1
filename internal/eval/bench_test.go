package eval

import (
	"context"
	"math/rand"
	"testing"

	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// loadsSink keeps the benchmarked evaluations from being optimized away.
var loadsSink []float64

// BenchmarkChannelLoads measures one equation (2) evaluation through a
// one-off load plan: DOR (5 nonzeros per row) and VAL (136 of 256) under
// tornado traffic on the 8-ary 2-cube, and a permutation on the 8x8 mesh,
// whose plan indexes only the 64 loaded rows of its 4,096.
func BenchmarkChannelLoads(b *testing.B) {
	tor := topo.NewTorus(8)
	mesh, err := topo.Parse("mesh:8x8")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		f    *Flow
		lam  *traffic.Matrix
	}{
		{"torus2d:8/DOR/tornado", FromAlgorithm(tor, routing.DOR{}), traffic.Tornado(tor)},
		{"torus2d:8/VAL/tornado", FromAlgorithm(tor, routing.VAL{}), traffic.Tornado(tor)},
		{"mesh:8x8/lowest-port/perm", lowestPortFlow(mesh), traffic.Permutation(rand.New(rand.NewSource(1)).Perm(mesh.Nodes()))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				loadsSink = bc.f.ChannelLoads(bc.lam)
			}
		})
	}
}

// BenchmarkAvgCaseK8 measures the paper's average-case evaluation at full
// scale: IVAL on the 8-ary 2-cube over 100 sampled doubly-stochastic
// matrices (Section 3.3), on one worker so the figure is serial.
func BenchmarkAvgCaseK8(b *testing.B) {
	tor := topo.NewTorus(8)
	f := FromAlgorithm(tor, routing.IVAL{})
	samples := traffic.Sample(tor.N, 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.AvgCaseCtx(context.Background(), samples, 1); err != nil {
			b.Fatal(err)
		}
	}
}
