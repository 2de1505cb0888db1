package eval

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// denseChannelLoads is the dense scan the load plan replaced, kept as the
// oracle for it: every channel of every loaded row, skipping exact zeros.
func denseChannelLoads(f *Flow, lambda *traffic.Matrix) []float64 {
	t := f.T
	n, nc := t.Nodes(), t.Chans()
	loads := make([]float64, nc)
	chanMap := make([]topo.Channel, nc)
	vt := t.VertexTransitive()
	for s := 0; s < n; s++ {
		if vt {
			shift := transBy(t.TransGroup(), topo.Node(s))
			for c := 0; c < nc; c++ {
				chanMap[c] = t.TransGroup().ApplyChan(shift, topo.Channel(c))
			}
		}
		for d := 0; d < n; d++ {
			l := lambda.L[s][d]
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if l == 0 {
				continue
			}
			x := f.X[RowOf(t, topo.Node(s), topo.Node(d))]
			for c := 0; c < nc; c++ {
				//lint:ignore floatcmp sparsity skip: channels a path never crosses stay exactly 0
				if x[c] == 0 {
					continue
				}
				out := c
				if vt {
					out = int(chanMap[c])
				}
				loads[out] += l * x[c]
			}
		}
	}
	return loads
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// planCases returns flows on every family: Table 1 algorithms on the 2D
// torus and seeded sparse tables elsewhere.
func planCases(t *testing.T) []*Flow {
	t.Helper()
	var flows []*Flow
	for _, spec := range []string{"torus2d:4", "torus2d:5"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []routing.Algorithm{routing.DOR{}, routing.ROMM{}, routing.RLB{}, routing.VAL{}} {
			flows = append(flows, FromAlgorithm(tp, alg))
		}
	}
	for _, spec := range []string{"torus3d:3", "mesh:3x4", "mesh:4x4"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, sparseFlow(tp, 11), lowestPortFlow(tp))
	}
	return flows
}

// TestPlanMatchesDenseScan checks the plan's loads against the dense oracle
// bit for bit under uniform, permutation, sparse random and sampled traffic,
// reusing one plan across all of them.
func TestPlanMatchesDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range planCases(t) {
		n := f.T.Nodes()
		sparse := traffic.NewMatrix(n)
		for i := 0; i < n; i++ {
			sparse.L[rng.Intn(n)][rng.Intn(n)] = rng.Float64()
		}
		lams := append([]*traffic.Matrix{
			traffic.Uniform(n), traffic.Permutation(rng.Perm(n)), sparse,
		}, traffic.Sample(n, 3, 9)...)
		plan := f.Plan()
		for i, lam := range lams {
			want := denseChannelLoads(f, lam)
			if got := plan.ChannelLoads(lam); !sameBits(got, want) {
				t.Errorf("%s: matrix %d: plan loads differ from the dense scan", topo.String(f.T), i)
			}
			if got := f.ChannelLoads(lam); !sameBits(got, want) {
				t.Errorf("%s: matrix %d: one-off plan loads differ from the dense scan", topo.String(f.T), i)
			}
		}
	}
}

// TestPlanConcurrentUse shares one plan across goroutines
// evaluating different matrices (run under -race).
func TestPlanConcurrentUse(t *testing.T) {
	tp, err := topo.Parse("mesh:4x4")
	if err != nil {
		t.Fatal(err)
	}
	f := sparseFlow(tp, 3)
	n := tp.Nodes()
	rng := rand.New(rand.NewSource(1))
	lams := make([]*traffic.Matrix, 16)
	for i := range lams {
		lams[i] = traffic.Permutation(rng.Perm(n))
	}
	lams = append(lams, traffic.Sample(n, 4, 2)...)
	plan := f.Plan()
	got := make([][]float64, len(lams))
	var wg sync.WaitGroup
	for i := range lams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = plan.ChannelLoads(lams[i])
		}(i)
	}
	wg.Wait()
	for i, lam := range lams {
		if !sameBits(got[i], denseChannelLoads(f, lam)) {
			t.Errorf("matrix %d: concurrent plan loads differ from the dense scan", i)
		}
	}
}

// TestOneOffLoadsScanOnlyLoadedRows checks that a one-off evaluation on a
// family without translation symmetry builds no plan: it allocates the load
// vector alone, however many of the N^2 rows the matrix leaves empty, and
// matches the dense scan.
func TestOneOffLoadsScanOnlyLoadedRows(t *testing.T) {
	tp, err := topo.Parse("mesh:4x4")
	if err != nil {
		t.Fatal(err)
	}
	f := sparseFlow(tp, 3)
	lam := traffic.Permutation(rand.New(rand.NewSource(4)).Perm(tp.Nodes()))
	if allocs := testing.AllocsPerRun(20, func() { f.ChannelLoads(lam) }); allocs != 1 {
		t.Errorf("one-off loads: %v allocations, want 1 (the load vector)", allocs)
	}
	if !sameBits(f.ChannelLoads(lam), denseChannelLoads(f, lam)) {
		t.Error("one-off loads differ from the dense scan")
	}
}

// TestPlanSmallerThanFlow checks that a plan with its frame stays below the
// flow table's own size for every Table 1 algorithm at k = 4, 5 and 8 and
// for the sparse tables.
func TestPlanSmallerThanFlow(t *testing.T) {
	flows := planCases(t)
	for _, k := range []int{4, 5, 8} {
		for _, name := range []string{"DOR", "ROMM", "RLB", "RLBth", "VAL", "IVAL"} {
			alg, _ := routing.ByName(name)
			flows = append(flows, FromAlgorithm(topo.NewTorus(k), alg))
		}
	}
	for _, f := range flows {
		plan := f.Plan()
		const int32Size, intSize, float64Size = 4, 8, 8
		size := int32Size * (len(plan.fr.trans) + len(plan.fr.rel) + len(plan.idx))
		size += intSize * len(plan.off)
		flowSize := float64Size * len(f.X) * f.T.Chans()
		if size >= flowSize {
			t.Errorf("%s: plan %d bytes, flow table %d", topo.String(f.T), size, flowSize)
		}
	}
}

// TestBatchedLoadsMatchPerSample checks the multi-sample kernel against
// ChannelLoads run on each sample alone: every load's bits, gamma_max and
// its argmax channel, for sample counts around and across the batch width,
// with matrices that leave whole rows, single entries or everything zero,
// on one and on four workers.
func TestBatchedLoadsMatchPerSample(t *testing.T) {
	var flows []*Flow
	for _, spec := range []string{"torus2d:8", "torus2d:5"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []routing.Algorithm{routing.DOR{}, routing.IVAL{}} {
			flows = append(flows, FromAlgorithm(tp, alg))
		}
	}
	for _, spec := range []string{"torus3d:4", "mesh:4x4", "mesh:3x5"} {
		tp, err := topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, sparseFlow(tp, 7))
	}
	for _, f := range flows {
		plan := f.Plan()
		for _, count := range []int{1, 7, 8, 9, 12, 100} {
			lams := holeySamples(f.T.Nodes(), count, int64(count))
			want := make([][]float64, count)
			for i, lam := range lams {
				want[i] = plan.ChannelLoads(lam)
			}
			for lo := 0; lo < count; lo += lanes {
				loads := plan.batchLoads(lams[lo:min(lo+lanes, count)])
				for k := 0; k < lanes && lo+k < count; k++ {
					lane := make([]float64, len(loads))
					for c := range loads {
						lane[c] = loads[c][k]
					}
					if !sameBits(lane, want[lo+k]) {
						t.Fatalf("%s, %d samples: sample %d: batched loads differ from ChannelLoads", topo.String(f.T), count, lo+k)
					}
				}
			}
			for _, workers := range []int{1, 4} {
				gammas, argmax, err := plan.MaxLoads(context.Background(), lams, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range lams {
					c, g := maxLoad(want[i])
					if math.Float64bits(gammas[i]) != math.Float64bits(g) || argmax[i] != c {
						t.Fatalf("%s, %d samples, %d workers: sample %d: gamma %v at %d, want %v at %d",
							topo.String(f.T), count, workers, i, gammas[i], argmax[i], g, c)
					}
				}
			}
		}
	}
}

// holeySamples returns count seeded doubly-stochastic samples, some with an
// empty row, some with scattered zero entries, some replaced by
// permutations, and the last one all zero when count > 1. The pattern's
// period (5) is prime to the batch width, so every lane gets every kind.
func holeySamples(n, count int, seed int64) []*traffic.Matrix {
	rng := rand.New(rand.NewSource(seed))
	lams := traffic.Sample(n, count, seed)
	for i, lam := range lams {
		switch i % 5 {
		case 1:
			clear(lam.L[rng.Intn(n)])
		case 2:
			for j := 0; j < n; j++ {
				lam.L[rng.Intn(n)][rng.Intn(n)] = 0
			}
		case 3:
			lams[i] = traffic.Permutation(rng.Perm(n))
		}
	}
	if count > 1 {
		lams[count-1] = traffic.NewMatrix(n)
	}
	return lams
}
