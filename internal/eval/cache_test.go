package eval

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
)

// countingAlg wraps an algorithm and counts PairPaths calls so the tests can
// observe cache hits vs recomputation.
type countingAlg struct {
	routing.Algorithm
	mu    sync.Mutex
	calls int
}

func (c *countingAlg) PairPaths(t topo.Topology, s, d topo.Node) []paths.Weighted {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Algorithm.PairPaths(t, s, d)
}

func (c *countingAlg) callCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestCacheReusesFlows(t *testing.T) {
	tor := topo.NewTorus(4)
	c := NewCache()
	a, err := c.Evaluate(context.Background(), tor, routing.DOR{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Evaluate(context.Background(), tor, routing.DOR{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second lookup did not return the cached flow")
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	// A different radix is a different key.
	if _, err := c.Evaluate(context.Background(), topo.NewTorus(3), routing.DOR{}, 1); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
}

func TestCacheMatchesDirectEvaluation(t *testing.T) {
	tor := topo.NewTorus(5)
	c := NewCache()
	got, err := c.Evaluate(context.Background(), tor, routing.IVAL{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := FromAlgorithm(tor, routing.IVAL{})
	if !reflect.DeepEqual(got.X, want.X) {
		t.Fatal("cached flow differs from direct evaluation")
	}
}

func TestCacheBypassesTables(t *testing.T) {
	tor := topo.NewTorus(3)
	// A designed table has no stable content address: same label, possibly
	// different distributions.
	tbl := &routing.Table{Label: "2TURN", Dist: map[topo.Node][]paths.Weighted{}}
	if _, ok := FlowKey(tor, tbl); ok {
		t.Fatal("routing tables must not have a cache key")
	}
	c := NewCache()
	if _, err := c.Evaluate(context.Background(), tor, tbl, 1); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("table evaluation entered the cache")
	}
}

func TestCacheInterpolationKeysAreExact(t *testing.T) {
	tor := topo.NewTorus(3)
	mix := func(alpha float64) routing.Algorithm {
		return routing.Interpolated{A: routing.IVAL{}, B: routing.DOR{}, Alpha: alpha}
	}
	// Name() rounds alpha to two decimals; the cache key must not.
	k1, ok1 := FlowKey(tor, mix(0.501))
	k2, ok2 := FlowKey(tor, mix(0.502))
	if !ok1 || !ok2 {
		t.Fatal("interpolations of closed forms should be cacheable")
	}
	if k1 == k2 {
		t.Fatalf("distinct alphas collide on key %q", k1)
	}
	// Interpolations involving a table are not cacheable.
	tbl := &routing.Table{Label: "x", Dist: map[topo.Node][]paths.Weighted{}}
	if _, ok := FlowKey(tor, routing.Interpolated{A: tbl, B: routing.DOR{}, Alpha: 0.5}); ok {
		t.Fatal("interpolation over a table must not be cacheable")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	tor := topo.NewTorus(4)
	alg := &countingAlg{Algorithm: routing.DOR{}}
	// countingAlg is a wrapper type, so it falls through to the default
	// Name-keyed case and is cacheable under DOR's name.
	c := NewCache()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Evaluate(context.Background(), tor, alg, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	alg.mu.Lock()
	calls := alg.calls
	alg.mu.Unlock()
	if calls != tor.N {
		t.Fatalf("PairPaths called %d times, want exactly %d (one enumeration)", calls, tor.N)
	}
}

func TestCacheLRUEvictsOldest(t *testing.T) {
	c := NewCacheLimit(2)
	eval := func(k int, alg routing.Algorithm) {
		t.Helper()
		if _, err := c.Evaluate(context.Background(), topo.NewTorus(k), alg, 1); err != nil {
			t.Fatal(err)
		}
	}
	dor := &countingAlg{Algorithm: routing.DOR{}}
	eval(3, dor)            // {k3/DOR}
	eval(3, routing.VAL{})  // {k3/DOR, k3/VAL}
	eval(3, dor)            // touch DOR: VAL is now oldest
	eval(3, routing.IVAL{}) // evicts k3/VAL
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want cap 2", c.Len())
	}
	before := dor.callCount()
	eval(3, dor) // DOR survived the eviction: no recomputation
	if dor.callCount() != before {
		t.Fatal("recently used entry was evicted")
	}
	val := &countingAlg{Algorithm: routing.VAL{}}
	eval(3, val)
	if val.callCount() != topo.NewTorus(3).N {
		t.Fatal("evicted entry was served from cache")
	}
}

func TestCacheUnboundedByDefault(t *testing.T) {
	c := NewCache()
	for k := 2; k <= 6; k++ {
		if _, err := c.Evaluate(context.Background(), topo.NewTorus(k), routing.DOR{}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 5 {
		t.Fatalf("unbounded cache holds %d entries, want 5", c.Len())
	}
}

func TestCacheDoesNotCacheCancellation(t *testing.T) {
	tor := topo.NewTorus(4)
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Evaluate(ctx, tor, routing.DOR{}, 1); err == nil {
		t.Fatal("cancelled evaluation succeeded")
	}
	// A live context must recompute rather than replay the cached error.
	f, err := c.Evaluate(context.Background(), tor, routing.DOR{}, 1)
	if err != nil || f == nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

func TestCacheWorstCaseMemoized(t *testing.T) {
	tor := topo.NewTorus(4)
	c := NewCache()
	const callers = 8
	gammas := make([]float64, callers)
	perms := make([][]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, g, perm, err := c.WorstCase(context.Background(), tor, routing.ROMM{}, 1+i%2)
			if err != nil {
				t.Error(err)
			}
			gammas[i], perms[i] = g, perm
		}(i)
	}
	wg.Wait()
	if runs := c.WorstCaseRuns(); runs != 1 {
		t.Fatalf("%d worst-case computations for one flow, want 1", runs)
	}
	wantG, wantPerm := FromAlgorithm(tor, routing.ROMM{}).WorstCase()
	for i := range gammas {
		if gammas[i] != wantG || !reflect.DeepEqual(perms[i], wantPerm) {
			t.Fatalf("caller %d: worst case (%v, %v), want (%v, %v)", i, gammas[i], perms[i], wantG, wantPerm)
		}
		if &perms[i][0] != &perms[0][0] {
			t.Fatalf("caller %d got its own permutation, want the memoized one", i)
		}
	}
}

func TestCacheWorstCaseNotMemoizedOnCancel(t *testing.T) {
	tor := topo.NewTorus(4)
	c := NewCache()
	if _, err := c.Evaluate(context.Background(), tor, routing.DOR{}, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.WorstCase(ctx, tor, routing.DOR{}, 1); err == nil {
		t.Fatal("canceled worst case succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := c.WorstCase(context.Background(), tor, routing.DOR{}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if runs := c.WorstCaseRuns(); runs != 2 {
		t.Fatalf("%d worst-case computations, want 2 (the canceled one and one memoized retry)", runs)
	}
}

func TestCacheWorstCaseBypassesTables(t *testing.T) {
	tor := topo.NewTorus(3)
	f := FromAlgorithm(tor, routing.DOR{})
	dist := map[topo.Node][]paths.Weighted{}
	for rel := topo.Node(1); int(rel) < tor.N; rel++ {
		dist[rel] = routing.DOR{}.PairPaths(tor, 0, rel)
	}
	c := NewCache()
	tbl := &routing.Table{Label: "dor-table", Dist: dist}
	for i := 0; i < 2; i++ {
		got, g, _, err := c.WorstCase(context.Background(), tor, tbl, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := f.WorstCase(); g != want || !reflect.DeepEqual(got.X, f.X) {
			t.Fatalf("table worst case %v, want %v", g, want)
		}
	}
	if c.Len() != 0 || c.WorstCaseRuns() != 2 {
		t.Fatalf("table was cached: %d entries, %d runs", c.Len(), c.WorstCaseRuns())
	}
}

// TestCacheSharesPlanFrames checks that the plans of flows cached on one
// topology share its frame, that the frame goes with the last of them, and
// that a summary is computed once per flow.
func TestCacheSharesPlanFrames(t *testing.T) {
	ctx := context.Background()
	c := NewCacheLimit(2)
	tor := topo.NewTorus(4)
	dor, err := c.Summary(ctx, tor, routing.DOR{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	val, err := c.Summary(ctx, topo.NewTorus(4), routing.VAL{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dor.Plan.fr != val.Plan.fr {
		t.Error("plans of two flows on torus2d:4 hold separate frames")
	}
	if again, _ := c.Summary(ctx, tor, routing.DOR{}, 1); again != dor || c.PlanBuilds() != 2 {
		t.Errorf("repeated summary rebuilt: %d plan builds, want 2", c.PlanBuilds())
	}
	// Two entries on torus2d:3 evict both torus2d:4 flows and their frame.
	for _, alg := range []routing.Algorithm{routing.DOR{}, routing.VAL{}} {
		if _, err := c.Summary(ctx, topo.NewTorus(3), alg, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	_, kept := c.frames[topo.String(tor)]
	frames := len(c.frames)
	c.mu.Unlock()
	if kept || frames != 1 {
		t.Errorf("%d frames held (torus2d:4 kept: %v), want torus2d:3's alone", frames, kept)
	}
}
