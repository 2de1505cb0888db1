package eval

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// Cache memoizes flow tables content-addressed by topology and
// algorithm identity, so repeated Report/CLI invocations over the same
// algorithm reuse one path-enumeration pass; each entry also memoizes its
// flow's exact worst case (WorstCase), so they reuse one Hungarian pass
// too, and its load plan with the uniform-traffic metrics (Summary), so
// they build one plan and evaluate capacity once. Plans of the flows
// cached on one topology share its frame. Concurrent lookups of the same
// key share a single computation; distinct keys compute independently. The
// cache is safe for concurrent use.
//
// A cache built with NewCacheLimit holds at most its cap entries and evicts
// the least recently used one on overflow; NewCache is unbounded, matching
// the historical behavior. Flow tables at large radix are the dominant
// memory cost of a long-lived process (O(k^2) relative destinations x k
// channels of float64 each), so daemons should bound the cache.
type Cache struct {
	mu     sync.Mutex
	m      map[string]*cacheEntry
	lru    *list.List // front = most recently used; elements hold *cacheEntry
	cap    int        // 0 = unbounded
	wcRuns atomic.Int64
	plans  atomic.Int64

	// frames holds the plan frame of every topology with a cached entry,
	// keyed by topo.String.
	frames map[string]*frameSlot
}

// frameSlot builds a topology's plan frame once.
type frameSlot struct {
	once sync.Once
	fr   *frame
}

type cacheEntry struct {
	once sync.Once
	flow *Flow
	err  error
	key  string
	topo string        // topo.String of the flow's topology
	elem *list.Element // position in lru; nil once evicted or dropped

	sumOnce sync.Once
	sum     *Summary

	// The flow's memoized worst case, under wcMu: wcWait is non-nil while
	// a computation is in flight, wcDone once one has succeeded.
	wcMu    sync.Mutex
	wcWait  chan struct{}
	wcDone  bool
	wcGamma float64
	wcPerm  []int
}

// NewCache returns an empty, unbounded flow cache.
func NewCache() *Cache { return NewCacheLimit(0) }

// NewCacheLimit returns an empty flow cache holding at most maxEntries flow
// tables, evicting the least recently used on overflow. maxEntries <= 0
// means unbounded.
func NewCacheLimit(maxEntries int) *Cache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cache{m: map[string]*cacheEntry{}, lru: list.New(), cap: maxEntries, frames: map[string]*frameSlot{}}
}

// FlowKey returns the content address of (t, alg) and whether the algorithm
// has one. Closed-form algorithms are addressed by topology plus Name, which
// uniquely determines their path distribution; interpolations recurse with
// the exact bits of alpha (Name alone rounds it to two decimals). Designed
// routing tables carry only a human-chosen label that two different designs
// may share, so they have no stable address and are never cached.
func FlowKey(t topo.Topology, alg routing.Algorithm) (string, bool) {
	k, ok := algKey(alg)
	if !ok {
		return "", false
	}
	return topo.String(t) + "/" + k, true
}

func algKey(alg routing.Algorithm) (string, bool) {
	switch a := alg.(type) {
	case routing.Interpolated:
		ka, okA := algKey(a.A)
		kb, okB := algKey(a.B)
		if !okA || !okB {
			return "", false
		}
		var sb strings.Builder
		sb.WriteString("mix[")
		sb.WriteString(strconv.FormatFloat(a.Alpha, 'x', -1, 64))
		sb.WriteString("](")
		sb.WriteString(ka)
		sb.WriteString(")(")
		sb.WriteString(kb)
		sb.WriteByte(')')
		return sb.String(), true
	case *routing.Table:
		return "", false
	default:
		return alg.Name(), true
	}
}

// Evaluate returns the memoized flow table of (t, alg), computing it via
// FromAlgorithmCtx on a miss. The returned *Flow is shared across callers
// and MUST be treated as read-only. Algorithms without a stable identity
// (designed routing tables) bypass the cache and are evaluated fresh. A
// failed computation (context cancellation) is not cached; the next caller
// retries.
func (c *Cache) Evaluate(ctx context.Context, t topo.Topology, alg routing.Algorithm, workers int) (*Flow, error) {
	e, err := c.entry(ctx, t, alg, workers)
	if err != nil {
		return nil, err
	}
	return e.flow, nil
}

// WorstCase returns the memoized flow table of (t, alg) with its worst case
// (gamma, perm) as WorstCaseCtx computes it, evaluating either on a miss.
// Concurrent callers share one computation; a failed or canceled one is not
// memoized, and a waiting caller whose own context is live retries it. The
// result is identical for every worker count, so every caller sees the same
// bits whichever of them computed it. The returned permutation is shared
// and MUST be treated as read-only, like the flow. Uncacheable algorithms
// are evaluated fresh.
func (c *Cache) WorstCase(ctx context.Context, t topo.Topology, alg routing.Algorithm, workers int) (*Flow, float64, []int, error) {
	e, err := c.entry(ctx, t, alg, workers)
	if err != nil {
		return nil, 0, nil, err
	}
	g, perm, err := c.worstCase(ctx, e, workers)
	if err != nil {
		return nil, 0, nil, err
	}
	return e.flow, g, perm, nil
}

// worstCase returns e's memoized worst case, computing it on a miss (see
// WorstCase).
func (c *Cache) worstCase(ctx context.Context, e *cacheEntry, workers int) (float64, []int, error) {
	for {
		e.wcMu.Lock()
		if e.wcDone {
			g, perm := e.wcGamma, e.wcPerm
			e.wcMu.Unlock()
			return g, perm, nil
		}
		if wait := e.wcWait; wait != nil {
			e.wcMu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			}
		}
		wait := make(chan struct{})
		e.wcWait = wait
		e.wcMu.Unlock()

		c.wcRuns.Add(1)
		g, perm, err := e.flow.WorstCaseCtx(ctx, workers)
		e.wcMu.Lock()
		e.wcWait = nil
		if err == nil {
			e.wcDone, e.wcGamma, e.wcPerm = true, g, perm
		}
		e.wcMu.Unlock()
		close(wait)
		return g, perm, err
	}
}

// Summary holds what a report of a flow needs besides its samples: the
// flow's load plan, its uniform-traffic metrics and its worst-case load.
// It is shared across callers and MUST be treated as read-only.
type Summary struct {
	Plan *LoadPlan
	// Capacity is the flow's throughput under uniform traffic
	// (Flow.Capacity); HAvg and HNorm are Flow.HAvg and Flow.HNorm; GammaWC
	// is the worst-case load WorstCase returns.
	Capacity, HAvg, HNorm, GammaWC float64
}

// Summary returns the memoized summary of (t, alg)'s flow, computing the
// worst case as WorstCase does and, once per cached flow, the load plan and
// capacity, bit for bit as the Flow methods do. Uncacheable algorithms are
// evaluated fresh.
func (c *Cache) Summary(ctx context.Context, t topo.Topology, alg routing.Algorithm, workers int) (*Summary, error) {
	e, err := c.entry(ctx, t, alg, workers)
	if err != nil {
		return nil, err
	}
	g, _, err := c.worstCase(ctx, e, workers)
	if err != nil {
		return nil, err
	}
	e.sumOnce.Do(func() {
		c.plans.Add(1)
		f := e.flow
		plan := f.planOn(c.frame(e.topo, t))
		h := f.HAvg()
		e.sum = &Summary{
			Plan:     plan,
			Capacity: 1 / plan.GammaMax(traffic.Uniform(t.Nodes())),
			HAvg:     h,
			HNorm:    h / t.MeanMinDist(),
			GammaWC:  g,
		}
	})
	return e.sum, nil
}

// frame returns the plan frame of t, whose topo.String is key, shared while
// a flow on t is cached. Off the cache (no entry on t) it is built fresh.
func (c *Cache) frame(key string, t topo.Topology) *frame {
	c.mu.Lock()
	slot := c.frames[key]
	if slot == nil {
		slot = &frameSlot{}
		if c.cachedOn(key) {
			c.frames[key] = slot
		}
	}
	c.mu.Unlock()
	slot.once.Do(func() { slot.fr = newFrame(t) })
	return slot.fr
}

// cachedOn reports whether an entry on the topology key is cached.
func (c *Cache) cachedOn(key string) bool {
	for _, e := range c.m {
		if e.topo == key {
			return true
		}
	}
	return false
}

// entry returns the entry of (t, alg) with its flow computed. An algorithm
// without a stable identity gets a fresh entry that is never stored.
func (c *Cache) entry(ctx context.Context, t topo.Topology, alg routing.Algorithm, workers int) (*cacheEntry, error) {
	key, ok := FlowKey(t, alg)
	if !ok {
		f, err := FromAlgorithmCtx(ctx, t, alg, workers)
		if err != nil {
			return nil, err
		}
		return &cacheEntry{flow: f, topo: topo.String(t)}, nil
	}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &cacheEntry{key: key, topo: topo.String(t)}
		c.m[key] = e
		e.elem = c.lru.PushFront(e)
		if c.cap > 0 && c.lru.Len() > c.cap {
			c.evictOldestLocked()
		}
	} else if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	e.once.Do(func() { e.flow, e.err = FromAlgorithmCtx(ctx, t, alg, workers) })
	if e.err != nil {
		// Drop the poisoned entry so a live context can recompute it.
		c.mu.Lock()
		c.dropLocked(e)
		c.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// evictOldestLocked removes the least recently used entry. An evicted entry
// whose computation is still in flight completes normally — callers already
// holding it get their result; the table just isn't retained.
func (c *Cache) evictOldestLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	c.dropLocked(back.Value.(*cacheEntry))
}

// dropLocked unlinks e from the map and the LRU list, guarding against the
// entry having been replaced (a poisoned drop racing a re-insert) or already
// evicted, and releases its topology's frame with the last entry on it.
func (c *Cache) dropLocked(e *cacheEntry) {
	if c.m[e.key] == e {
		delete(c.m, e.key)
		if !c.cachedOn(e.topo) {
			delete(c.frames, e.topo)
		}
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
}

// WorstCaseRuns reports how many worst-case computations WorstCase has
// started, memoized or not (for tests and diagnostics).
func (c *Cache) WorstCaseRuns() int64 { return c.wcRuns.Load() }

// PlanBuilds reports how many load plans Summary has built, each with its
// flow's capacity (for tests and diagnostics).
func (c *Cache) PlanBuilds() int64 { return c.plans.Load() }

// Len reports the number of cached flow tables (for tests and diagnostics).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
