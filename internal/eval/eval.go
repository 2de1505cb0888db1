// Package eval computes the performance metrics of Section 2.3 and the
// throughput-centric cost functions of Section 3 for concrete routing
// functions: per-channel loads gamma_c(R, Lambda), the maximum channel load
// gamma_max, throughput Theta = 1/gamma_max, capacity (uniform-traffic
// throughput), average path length H_avg, exact worst-case throughput via
// the Hungarian separation oracle, and the sampled average-case throughput
// with both the paper's arithmetic-mean approximation and the exact
// harmonic form it approximates.
package eval

import (
	"context"
	"math"

	"tcr/internal/matching"
	"tcr/internal/par"
	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// Flow is the channel-load fingerprint of an oblivious routing function.
// On vertex-transitive topologies X[rel][c] is the expected number of times
// a unit of traffic from node 0 to relative destination rel crosses channel
// c, and translation invariance extends the table to all pairs; on other
// topologies the table holds one row per ordered pair, X[s*N+d][c]. Every
// metric in this package is a function of this table, which is exactly the
// "one flow variable per channel per commodity" reformulation of Section 4.
type Flow struct {
	T topo.Topology
	X [][]float64
}

// Rows returns the number of commodity rows a flow table has on t: N for
// vertex-transitive topologies, N^2 otherwise.
func Rows(t topo.Topology) int {
	if t.VertexTransitive() {
		return t.Nodes()
	}
	return t.Nodes() * t.Nodes()
}

// RowOf returns the table row holding the (s, d) commodity.
func RowOf(t topo.Topology, s, d topo.Node) int {
	if t.VertexTransitive() {
		return int(t.RelNode(s, d))
	}
	return int(s)*t.Nodes() + int(d)
}

// NewFlow allocates an all-zero flow table.
func NewFlow(t topo.Topology) *Flow {
	rows, c := Rows(t), t.Chans()
	x := make([][]float64, rows)
	buf := make([]float64, rows*c)
	for i := range x {
		x[i] = buf[i*c : (i+1)*c]
	}
	return &Flow{T: t, X: x}
}

// FromAlgorithm builds the flow table of an algorithm by enumerating its
// path distributions, using all cores. It is the context-free form of
// FromAlgorithmCtx; with a background context the sharded evaluation cannot
// fail.
func FromAlgorithm(t topo.Topology, alg routing.Algorithm) *Flow {
	f, err := FromAlgorithmCtx(context.Background(), t, alg, 0)
	mustNil(err)
	return f
}

// FromAlgorithmCtx builds the flow table with the per-commodity enumeration
// sharded across at most workers goroutines (see par.Workers for the budget
// semantics). On vertex-transitive topologies only the canonical source is
// enumerated; otherwise every ordered pair is. Each commodity owns exactly
// one row of the table, so the shards are disjoint and the result is
// bit-for-bit identical for every worker count. Algorithm implementations
// must therefore be safe for concurrent PairPaths calls; all algorithms in
// internal/routing are stateless or read-only and qualify.
func FromAlgorithmCtx(ctx context.Context, t topo.Topology, alg routing.Algorithm, workers int) (*Flow, error) {
	f := NewFlow(t)
	n := t.Nodes()
	var err error
	if t.VertexTransitive() {
		err = par.Do(ctx, n, workers, func(i int) error {
			rel := topo.Node(i)
			for _, w := range alg.PairPaths(t, 0, rel) {
				for _, c := range w.Path.Channels(t) {
					f.X[rel][c] += w.Prob
				}
			}
			return nil
		})
	} else {
		err = par.Do(ctx, n*n, workers, func(i int) error {
			s, d := topo.Node(i/n), topo.Node(i%n)
			if s == d {
				return nil
			}
			for _, w := range alg.PairPaths(t, s, d) {
				for _, c := range w.Path.Channels(t) {
					f.X[i][c] += w.Prob
				}
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// HAvg returns the average path length over all N^2 pairs (self pairs count
// zero), equation (5). Because paths never revisit channels, a commodity's
// expected path length equals its total channel crossings.
func (f *Flow) HAvg() float64 {
	var total float64
	for row := range f.X {
		for _, v := range f.X[row] {
			total += v
		}
	}
	return total / float64(len(f.X))
}

// HNorm returns H_avg normalized to the network's mean minimal path length,
// the vertical axis of Figures 1, 4, 5 and 6.
func (f *Flow) HNorm() float64 {
	return f.HAvg() / f.T.MeanMinDist()
}

// transBy returns the translation mapping node 0 to s (the inverse of the
// PairAut translation, which maps s to the canonical source 0).
func transBy(tg topo.AutGroup, s topo.Node) topo.AutID {
	if s == 0 {
		return tg.Identity()
	}
	_, a := tg.PairAut(s, 0)
	return tg.Inverse(a)
}

// ChannelLoads returns gamma_c(R, Lambda) for every channel, equation (2).
// Callers evaluating many matrices against one flow should build a load
// plan once (Plan) and share it. On vertex-transitive families this
// evaluation goes through a one-off plan, whose translation table is the
// cost of any evaluation there; elsewhere every pair has its own row, so it
// scans just the rows lambda loads, in place: the plan's terms, in the
// plan's order, without indexing the N^2 rows a plan would.
func (f *Flow) ChannelLoads(lambda *traffic.Matrix) []float64 {
	if f.T.VertexTransitive() {
		return f.Plan().ChannelLoads(lambda)
	}
	n := f.T.Nodes()
	loads := make([]float64, f.T.Chans())
	for s, row := range lambda.L {
		for d, l := range row {
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if l == 0 {
				continue
			}
			for c, v := range f.X[s*n+d] {
				//lint:ignore floatcmp sparsity: channels a path never crosses stay exactly 0
				if v != 0 {
					loads[c] += l * v
				}
			}
		}
	}
	return loads
}

// GammaMax returns the normalized maximum channel load under a pattern,
// equation (3) with unit channel bandwidths.
func (f *Flow) GammaMax(lambda *traffic.Matrix) float64 {
	_, g := maxLoad(f.ChannelLoads(lambda))
	return g
}

// Throughput returns Theta(R, Lambda) = 1/gamma_max, equation (4).
func (f *Flow) Throughput(lambda *traffic.Matrix) float64 {
	return 1 / f.GammaMax(lambda)
}

// Capacity returns this routing function's throughput under uniform
// traffic (Section 3.1).
func (f *Flow) Capacity() float64 {
	return f.Throughput(traffic.Uniform(f.T.Nodes()))
}

// NetworkCapacity returns the network's capacity: the best achievable
// uniform-traffic throughput over all routing functions, from the congestion
// lower bound gamma_max >= (total minimal hops)/C: capacity =
// (C/N)/MeanMinDist, the mean channel count per node over the mean minimal
// path length (4/MeanMinDist on the 2D torus). All throughput fractions in
// the paper's figures are normalized by this quantity.
func NetworkCapacity(t topo.Topology) float64 {
	c, n := t.Chans(), t.Nodes()
	if c%n == 0 {
		return float64(c/n) / t.MeanMinDist()
	}
	return float64(c) / (float64(n) * t.MeanMinDist())
}

// PairLoadMatrix builds M[s][d]: the load that a unit of s->d traffic
// places on channel c, the weight matrix of the worst-case separation
// oracle. On vertex-transitive topologies translation invariance reads the
// load off row rel(s, d) at the channel translated by -s; otherwise each
// pair's own row is read directly.
func (f *Flow) PairLoadMatrix(c topo.Channel) [][]float64 {
	t := f.T
	n := t.Nodes()
	m := make([][]float64, n)
	if !t.VertexTransitive() {
		for s := 0; s < n; s++ {
			m[s] = make([]float64, n)
			for d := 0; d < n; d++ {
				m[s][d] = f.X[s*n+d][c]
			}
		}
		return m
	}
	tg := t.TransGroup()
	for s := 0; s < n; s++ {
		m[s] = make([]float64, n)
		// Channel c translated by -s.
		var tc topo.Channel
		if s == 0 {
			tc = c
		} else {
			_, back := tg.PairAut(topo.Node(s), 0)
			tc = tg.ApplyChan(back, c)
		}
		for d := 0; d < n; d++ {
			m[s][d] = f.X[t.RelNode(topo.Node(s), topo.Node(d))][tc]
		}
	}
	return m
}

// sepChans returns the channels the worst-case search must scan: one
// representative per channel orbit of the translation subgroup on
// vertex-transitive topologies (one per direction on the tori), every
// channel otherwise (arbitrary traffic is not symmetric, so no channel scan
// can be elided without a transitive action).
func (f *Flow) sepChans() []topo.Channel {
	if f.T.VertexTransitive() {
		return f.T.TransGroup().ChanOrbitReps()
	}
	reps := make([]topo.Channel, f.T.Chans())
	for c := range reps {
		reps[c] = topo.Channel(c)
	}
	return reps
}

// WorstCase returns the worst-case channel load gamma_wc(R) over all
// doubly-stochastic traffic, equation (7), and a permutation achieving it.
// By the Birkhoff decomposition it suffices to search permutations, and the
// per-channel search is a maximum-weight matching of the pair-load matrix.
// It is the context-free form of WorstCaseCtx; PairLoadMatrix always
// produces a square N-by-N matrix, so the oracle's shape error is an
// internal invariant violation, not a data condition.
func (f *Flow) WorstCase() (float64, []int) {
	g, perm, err := f.WorstCaseCtx(context.Background(), 0)
	mustNil(err)
	return g, perm
}

// WorstCaseCtx runs the per-representative Hungarian matchings on at most
// workers goroutines and reduces the representatives in scan order, so the
// result (including the returned permutation's tie-breaks) is identical for
// every worker count.
func (f *Flow) WorstCaseCtx(ctx context.Context, workers int) (float64, []int, error) {
	reps := f.sepChans()
	perms := make([][]int, len(reps))
	weights := make([]float64, len(reps))
	err := par.Do(ctx, len(reps), workers, func(i int) error {
		perm, w, err := matching.MaxWeightAssignment(f.PairLoadMatrix(reps[i]))
		if err != nil {
			return err
		}
		perms[i], weights[i] = perm, w
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	var worst float64
	var worstPerm []int
	for i := range weights {
		if weights[i] > worst {
			worst, worstPerm = weights[i], perms[i]
		}
	}
	return worst, worstPerm, nil
}

// mustNil asserts that a context-free evaluation succeeded: with a
// background context and the evaluator's own well-shaped matrices, the
// error paths of the Ctx forms are unreachable.
func mustNil(err error) {
	if err != nil {
		panic(err)
	}
}

// WorstCaseThroughput returns Theta_wc(R) = 1/gamma_wc(R).
func (f *Flow) WorstCaseThroughput() float64 {
	wc, _ := f.WorstCase()
	return 1 / wc
}

// AvgCaseResult captures both forms of the average-case metric over a
// sample X of traffic matrices (Section 3.3).
type AvgCaseResult struct {
	// MeanMaxLoad is (1/|X|) sum gamma_max(R, Lambda_i): the paper's
	// linear (arithmetic-mean) cost, equation (9).
	MeanMaxLoad float64
	// ApproxThroughput is 1/MeanMaxLoad, the paper's approximation of
	// average-case throughput.
	ApproxThroughput float64
	// ExactMeanThroughput is (1/|X|) sum 1/gamma_max(R, Lambda_i), the
	// quantity the approximation stands in for.
	ExactMeanThroughput float64
}

// AvgCase evaluates the average-case metrics over a fixed sample, using all
// cores; it is the context-free form of AvgCaseCtx.
func (f *Flow) AvgCase(samples []*traffic.Matrix) AvgCaseResult {
	r, err := f.AvgCaseCtx(context.Background(), samples, 0)
	mustNil(err)
	return r
}

// AvgCaseCtx evaluates the average case through a one-off load plan (see
// LoadPlan.AvgCaseCtx).
func (f *Flow) AvgCaseCtx(ctx context.Context, samples []*traffic.Matrix, workers int) (AvgCaseResult, error) {
	return f.Plan().AvgCaseCtx(ctx, samples, workers)
}

// AvgCaseCtx computes each sample's maximum channel load in batches on at
// most workers goroutines (MaxLoads). The per-sample maxima land in
// per-index slots and are summed in sample order, so the floating-point
// accumulation — and therefore the result — is bit-for-bit the sequential
// one for every worker count.
func (p *LoadPlan) AvgCaseCtx(ctx context.Context, samples []*traffic.Matrix, workers int) (AvgCaseResult, error) {
	gammas, _, err := p.MaxLoads(ctx, samples, workers)
	if err != nil {
		return AvgCaseResult{}, err
	}
	var sumLoad, sumTheta float64
	for _, g := range gammas {
		sumLoad += g
		sumTheta += 1 / g
	}
	n := float64(len(samples))
	mean := sumLoad / n
	return AvgCaseResult{
		MeanMaxLoad:         mean,
		ApproxThroughput:    1 / mean,
		ExactMeanThroughput: sumTheta / n,
	}, nil
}

// ConservationError verifies that each commodity's flow satisfies
// conservation: the source emits one net unit, the destination absorbs one,
// and every other node is balanced. It returns the largest violation;
// algorithm- and LP-derived flows should be ~0.
func (f *Flow) ConservationError() float64 {
	t := f.T
	n := t.Nodes()
	vt := t.VertexTransitive()
	var worst float64
	for row := range f.X {
		var src, dst topo.Node
		if vt {
			src, dst = 0, topo.Node(row)
		} else {
			src, dst = topo.Node(row/n), topo.Node(row%n)
		}
		if src == dst {
			continue
		}
		x := f.X[row]
		for nd := topo.Node(0); nd < topo.Node(n); nd++ {
			var net float64
			deg := t.OutDeg(nd)
			for p := 0; p < deg; p++ {
				net += x[t.PortChan(nd, p)]
			}
			for p := 0; p < deg; p++ {
				// Channel entering nd through the same link as out-port p.
				net -= x[t.ReverseChan(t.PortChan(nd, p))]
			}
			want := 0.0
			switch nd {
			case src:
				want = 1
			case dst:
				want = -1
			}
			if dev := math.Abs(net - want); dev > worst {
				worst = dev
			}
		}
	}
	return worst
}

// FromPathDist builds a flow table directly from per-commodity weighted
// paths (a routing.Table's contents, keyed by table row), used when
// evaluating LP-designed algorithms without re-deriving them.
func FromPathDist(t topo.Topology, dist map[topo.Node][]paths.Weighted) *Flow {
	f := NewFlow(t)
	for row, ws := range dist {
		for _, w := range ws {
			for _, c := range w.Path.Channels(t) {
				f.X[row][c] += w.Prob
			}
		}
	}
	return f
}
