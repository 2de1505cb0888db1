package serve

import (
	"context"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tcr/internal/eval"
	"tcr/internal/routing"
	"tcr/internal/store"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// TestOversizedSampleSetRejected checks the sample budget at admission: the
// largest allowed count passes, anything above it is a 400 before a single
// matrix is built. The daemon case asks for one sample over the budget at
// k=4, so even a missing guard would allocate a bounded 128 MiB rather than
// the terabytes of a huge count.
func TestOversizedSampleSetRejected(t *testing.T) {
	for _, tc := range []struct {
		k, samples int
		ok         bool
	}{
		{8, 100, true},
		{8, maxSampleEntries / 4096, true},
		{8, maxSampleEntries/4096 + 1, false},
		{8, 1 << 30, false},
		{32, maxSampleEntries / (1 << 20), true},
		{32, maxSampleEntries/(1<<20) + 1, false},
		{8, int(^uint(0) >> 1), false},
	} {
		_, _, err := evalNetwork(store.EvalRequest{K: tc.k, Alg: "DOR", Samples: tc.samples, Seed: 1})
		if (err == nil) != tc.ok {
			t.Errorf("k=%d samples=%d: admission error %v, want accepted=%v", tc.k, tc.samples, err, tc.ok)
		}
	}

	_, ts := newTestServer(t, Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, _, body := post(t, ts, "/v1/eval", `{"k":4,"alg":"DOR","samples":65537,"seed":1}`)
	runtime.ReadMemStats(&after)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", status, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("rejecting the request allocated %d bytes", grew)
	}
}

// TestWorstCaseComputedOncePerFlow runs concurrent evals and worst-case
// certificates of one algorithm on one cache: a single Hungarian pass must
// serve all of them, with the same bits as a fresh computation.
func TestWorstCaseComputedOncePerFlow(t *testing.T) {
	ctx := context.Background()
	cache := eval.NewCache()
	const callers = 6
	evals := make([]*store.EvalArtifact, callers)
	perms := make([]*store.WorstPermArtifact, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			art, err := ComputeEval(ctx, store.EvalRequest{K: 6, Alg: "ROMM", Samples: 2, Seed: int64(i + 1)}, cache, 1+i%2)
			if err != nil {
				t.Error(err)
			}
			evals[i] = art
		}(i)
		go func(i int) {
			defer wg.Done()
			art, err := ComputeWorstPerm(ctx, store.WorstPermRequest{K: 6, Alg: "ROMM"}, cache, 1+i%2)
			if err != nil {
				t.Error(err)
			}
			perms[i] = art
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if runs := cache.WorstCaseRuns(); runs != 1 {
		t.Fatalf("%d worst-case computations, want 1", runs)
	}
	for i := 0; i < callers; i++ {
		fresh, err := ComputeEval(ctx, evals[i].Request, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(evals[i], fresh) {
			t.Errorf("eval %d differs from a fresh computation", i)
		}
		freshPerm, err := ComputeWorstPerm(ctx, perms[i].Request, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(perms[i], freshPerm) {
			t.Errorf("worst-case certificate %d differs from a fresh computation", i)
		}
	}
}

// TestPlanAndCapacityComputedOncePerFlow runs concurrent cold evals of
// several algorithms on one cache: each flow's load plan and capacity must
// be computed once, serving every request with the bits the Flow methods
// compute afresh.
func TestPlanAndCapacityComputedOncePerFlow(t *testing.T) {
	ctx := context.Background()
	cache := eval.NewCache()
	algs := []string{"DOR", "ROMM", "VAL"}
	const callers = 4
	evals := make([]*store.EvalArtifact, len(algs)*callers)
	var wg sync.WaitGroup
	for i := range evals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := store.EvalRequest{K: 6, Alg: algs[i%len(algs)], Samples: 1 + i, Seed: int64(i + 1)}
			art, err := ComputeEval(ctx, req, cache, 1+i%2)
			if err != nil {
				t.Error(err)
			}
			evals[i] = art
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if builds := cache.PlanBuilds(); builds != int64(len(algs)) {
		t.Fatalf("%d plan and capacity computations, want %d (one per flow)", builds, len(algs))
	}
	for i, art := range evals {
		req := art.Request
		tp := topo.NewTorus(req.K)
		alg, _ := routing.ByName(req.Alg)
		f := eval.FromAlgorithm(tp, alg)
		netCap := eval.NetworkCapacity(tp)
		ac := f.AvgCase(traffic.Sample(tp.Nodes(), req.Samples, req.Seed))
		for _, field := range []struct {
			name      string
			got, want float64
		}{
			{"capacity", art.Capacity, f.Capacity()},
			{"h_avg", art.HAvg, f.HAvg()},
			{"h_norm", art.HNorm, f.HNorm()},
			{"avg_fraction", art.AvgFraction, ac.ApproxThroughput / netCap},
		} {
			if math.Float64bits(field.got) != math.Float64bits(field.want) {
				t.Errorf("eval %d (%s): %s %v, fresh %v", i, req.Alg, field.name, field.got, field.want)
			}
		}
	}
}

// TestCanceledWorstCaseNotMemoized checks that a worst case abandoned by
// its caller's cancellation is recomputed by the next live caller and
// memoized only then.
func TestCanceledWorstCaseNotMemoized(t *testing.T) {
	cache := eval.NewCache()
	if _, err := cache.Evaluate(context.Background(), topo.NewTorus(4), routing.DOR{}, 1); err != nil {
		t.Fatal(err)
	}
	req := store.WorstPermRequest{K: 4, Alg: "DOR"}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeWorstPerm(ctx, req, cache, 1); err == nil {
		t.Fatal("canceled worst case succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, err := ComputeEval(context.Background(), store.EvalRequest{K: 4, Alg: "DOR"}, cache, 1); err != nil {
			t.Fatal(err)
		}
	}
	if runs := cache.WorstCaseRuns(); runs != 2 {
		t.Fatalf("%d worst-case computations, want 2 (the canceled one, then one memoized)", runs)
	}
}
