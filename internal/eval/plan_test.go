package eval

import (
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

// TestPlanConcurrentUse shares one lazily filled plan across goroutines
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

// TestPlanFillsOnlyLoadedRows checks that on a family without translation
// symmetry one evaluation indexes only the rows its matrix loads.
func TestPlanFillsOnlyLoadedRows(t *testing.T) {
	tp, err := topo.Parse("mesh:4x4")
	if err != nil {
		t.Fatal(err)
	}
	f := sparseFlow(tp, 3)
	n := tp.Nodes()
	perm := rand.New(rand.NewSource(4)).Perm(n)
	plan := f.Plan()
	plan.ChannelLoads(traffic.Permutation(perm))
	for r, done := range plan.filled {
		if loaded := perm[r/n] == r%n; done != loaded {
			t.Fatalf("row %d (pair %d->%d): indexed=%v, loaded=%v", r, r/n, r%n, done, loaded)
		}
	}
	plan.ChannelLoads(traffic.Uniform(n))
	for r, done := range plan.filled {
		if !done {
			t.Fatalf("row %d not indexed after uniform traffic", r)
		}
	}
}

// TestPlanSmallerThanFlow checks that a fully indexed plan stays below the
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
		plan.ChannelLoads(traffic.Uniform(f.T.Nodes()))
		const int32Size, float64Size, sliceSize = 4, 8, 24
		size := int32Size * (len(plan.trans) + len(plan.rel))
		size += sliceSize*len(plan.nz) + len(plan.filled)
		for _, row := range plan.nz {
			size += int32Size * len(row)
		}
		flowSize := float64Size * len(f.X) * f.T.Chans()
		if size >= flowSize {
			t.Errorf("%s: plan %d bytes, flow table %d", topo.String(f.T), size, flowSize)
		}
	}
}
