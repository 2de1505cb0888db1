// Package serve implements the tcrd daemon: an HTTP/JSON front end over the
// design and evaluation engines, backed by the content-addressed artifact
// store (internal/store). Identical requests are computed once — concurrent
// duplicates coalesce onto a single in-flight solve, and completed results
// replay from the store forever. Admission to the solver pool is bounded;
// overload surfaces as 429 backpressure rather than unbounded queueing, and
// per-request deadlines propagate into the LP solver's budgets so a stuck
// solve returns 504 with diagnostics instead of wedging a worker.
//
// The compute functions in this file are the single producers of artifact
// payloads. The CLI's -json mode calls the same functions and encodes
// through the same store.Encode, which is what makes daemon responses and
// CLI output byte-for-byte diffable.
package serve

import (
	"context"
	"fmt"

	"tcr/internal/design"
	"tcr/internal/eval"
	"tcr/internal/routing"
	"tcr/internal/store"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// maxRadix bounds the tori the compute layer will instantiate: evaluation is
// O(k^6) (Hungarian over N = k^2 nodes) and design LPs grow faster still, so
// an oversized radix must fail validation rather than exhaust the process.
const maxRadix = 32

// maxNodes is the same guard for explicit-topology requests, matching the
// radix cap's node count (32^2).
const maxNodes = 1024

// maxSampleEntries bounds an eval request's average-case sample set: the
// evaluator materializes Samples matrices of N^2 float64 entries (128 MiB
// at this cap) before it can check a deadline, so a request over the
// budget must fail admission instead. At k=8 it allows 4,096 samples.
const maxSampleEntries = 1 << 24

func checkRadix(k int) error {
	if k > maxRadix {
		return fmt.Errorf("radix %d out of range (max %d)", k, maxRadix)
	}
	return nil
}

// topoFor resolves a request's network: the legacy radix form (topology
// empty) instantiates a k-ary 2-cube, the explicit form parses the
// registered family. Both are size-capped so an oversized request fails
// validation rather than exhausting the process; the node cap is checked
// from the spec, before anything is built.
func topoFor(k int, topology string) (topo.Topology, error) {
	if topology == "" {
		if err := checkRadix(k); err != nil {
			return nil, err
		}
		return topo.NewTorus(k), nil
	}
	return topo.ParseLimit(topology, maxNodes)
}

// evalNetwork resolves an eval request's network and algorithm. It is the
// admission check for the name-addressed closed-form path: the daemon runs
// it before accepting a request (so failures are 400s, not compute errors)
// and ComputeEval runs it again as its own precondition.
func evalNetwork(req store.EvalRequest) (topo.Topology, routing.Algorithm, error) {
	t, err := topoFor(req.K, req.Topology)
	if err != nil {
		return nil, nil, err
	}
	if _, isTorus := t.(*topo.Torus); !isTorus {
		// Table 1's closed-form algorithms are 2D-torus constructions;
		// other families are served by LP-designed tables (the design
		// kinds), not by name.
		return nil, nil, fmt.Errorf("algorithm %q is defined on torus2d only (got %s)", req.Alg, topo.String(t))
	}
	alg, ok := routing.ByName(req.Alg)
	if !ok {
		return nil, nil, fmt.Errorf("unknown algorithm %q", req.Alg)
	}
	if n := t.Nodes(); req.Samples > maxSampleEntries/(n*n) {
		return nil, nil, fmt.Errorf("%d samples of %d x %d traffic exceed the budget of %d matrix entries", req.Samples, n, n, maxSampleEntries)
	}
	return t, alg, nil
}

// ComputeEval evaluates the paper's metrics for a named closed-form
// algorithm, resolving flow tables, their worst cases, load plans and
// capacities through cache (which may be shared with other requests; nil
// evaluates fresh), so a cold request on a cached flow only samples and
// evaluates its average case.
func ComputeEval(ctx context.Context, req store.EvalRequest, cache *eval.Cache, workers int) (*store.EvalArtifact, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	t, alg, err := evalNetwork(req)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = eval.NewCacheLimit(1)
	}
	sum, err := cache.Summary(ctx, t, alg, workers)
	if err != nil {
		return nil, err
	}
	netCap := eval.NetworkCapacity(t)
	art := &store.EvalArtifact{
		Schema:           store.SchemaVersion,
		Request:          req,
		NetworkCapacity:  netCap,
		HAvg:             sum.HAvg,
		HNorm:            sum.HNorm,
		Capacity:         sum.Capacity,
		CapacityFraction: sum.Capacity / netCap,
		GammaWC:          sum.GammaWC,
		WCFraction:       (1 / sum.GammaWC) / netCap,
	}
	if req.Samples > 0 {
		ac, err := sum.Plan.AvgCaseCtx(ctx, traffic.Sample(t.Nodes(), req.Samples, req.Seed), workers)
		if err != nil {
			return nil, err
		}
		art.AvgFraction = ac.ApproxThroughput / netCap
	}
	return art, nil
}

// ComputeWorstPerm produces the worst-case certificate for a named
// algorithm: the exact adversarial load and a permutation achieving it,
// memoized in cache like ComputeEval's. The artifact's Perm is the cache's
// shared copy and must not be modified.
func ComputeWorstPerm(ctx context.Context, req store.WorstPermRequest, cache *eval.Cache, workers int) (*store.WorstPermArtifact, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := checkRadix(req.K); err != nil {
		return nil, err
	}
	alg, ok := routing.ByName(req.Alg)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", req.Alg)
	}
	t := topo.NewTorus(req.K)
	if cache == nil {
		cache = eval.NewCacheLimit(1)
	}
	_, gamma, perm, err := cache.WorstCase(ctx, t, alg, workers)
	if err != nil {
		return nil, err
	}
	return &store.WorstPermArtifact{
		Schema:     store.SchemaVersion,
		Request:    req,
		GammaWC:    gamma,
		WCFraction: (1 / gamma) / eval.NetworkCapacity(t),
		Perm:       perm,
	}, nil
}

// ComputeDesign runs the requested LP design. Budgets and the checkpoint
// path travel in opts (they are not part of the request fingerprint); the
// tolerance and slack come from the request. An exhausted budget returns the
// degraded, uncertified artifact with a nil error — the caller decides
// whether to persist it (the daemon and CLI only persist certified results).
func ComputeDesign(ctx context.Context, req store.DesignRequest, opts design.Options) (*store.DesignArtifact, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	t, err := topoFor(req.K, req.Topology)
	if err != nil {
		return nil, err
	}
	opts.Tol, opts.Slack = req.Tol, req.Slack
	var res *design.Result
	switch req.Kind {
	case store.DesignWorstCase:
		if req.HNorm > 0 {
			res, err = design.WorstCaseAtLocalityCtx(ctx, t, req.HNorm, opts)
		} else {
			res, err = design.WorstCaseOptimalCtx(ctx, t, opts)
		}
	case store.DesignMinLocality:
		res, err = design.MinLocalityAtWorstCaseCtx(ctx, t, opts)
	default:
		return nil, fmt.Errorf("unknown design kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	return &store.DesignArtifact{
		Schema:     store.SchemaVersion,
		Request:    req,
		Objective:  res.Objective,
		GammaWC:    res.GammaWC,
		HAvg:       res.HAvg,
		HNorm:      res.HNorm,
		Rounds:     res.Rounds,
		Iterations: res.Iterations,
		Certified:  res.Certified,
		Reason:     res.Reason,
		Flow:       res.Flow.X,
	}, nil
}

// ComputePareto sweeps the worst-case Pareto curve over the request's
// locality range. Sweeps cannot degrade point-wise, so an exhausted budget
// surfaces as an error (wrapping design.ErrUncertified) rather than a
// partial curve.
func ComputePareto(ctx context.Context, req store.ParetoRequest, opts design.Options) (*store.ParetoArtifact, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := checkRadix(req.K); err != nil {
		return nil, err
	}
	t := topo.NewTorus(req.K)
	opts.Tol = req.Tol
	hNorms := make([]float64, req.Points)
	for i := range hNorms {
		if req.Points == 1 {
			hNorms[i] = req.HMin
		} else {
			hNorms[i] = req.HMin + (req.HMax-req.HMin)*float64(i)/float64(req.Points-1)
		}
	}
	pts, err := design.WorstCaseParetoCurveCtx(ctx, t, hNorms, opts)
	if err != nil {
		return nil, err
	}
	art := &store.ParetoArtifact{Schema: store.SchemaVersion, Request: req, Points: make([]store.ParetoPoint, len(pts))}
	for i, p := range pts {
		art.Points[i] = store.ParetoPoint{HNorm: p.HNorm, Theta: p.Theta, Gamma: p.Gamma}
	}
	return art, nil
}

// ArtifactFlow reconstructs an eval.Flow from a stored design artifact, so a
// replayed design can be decomposed into an executable routing table without
// re-solving the LP.
func ArtifactFlow(t topo.Topology, art *store.DesignArtifact) (*eval.Flow, error) {
	if len(art.Flow) != eval.Rows(t) {
		return nil, fmt.Errorf("artifact flow has %d rows, want %d (topology mismatch?)", len(art.Flow), eval.Rows(t))
	}
	f := eval.NewFlow(t)
	for rel, row := range art.Flow {
		if len(row) != t.Chans() {
			return nil, fmt.Errorf("artifact flow row %d has %d channels, want %d", rel, len(row), t.Chans())
		}
		copy(f.X[rel], row)
	}
	return f, nil
}
