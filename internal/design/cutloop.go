package design

import (
	"context"
	"errors"
	"fmt"

	"tcr/internal/eval"
	"tcr/internal/lp"
)

// Every design of the paper is solved by the same constraint-generation
// loop: solve the LP relaxation, run the exact oracle on the incumbent,
// add the constraints it finds violated, repeat until the oracle certifies
// the LP bound. cutLoop is that loop, written once. A formulation supplies
// how to solve one round, how to separate, and whether it checkpoints; the
// driver owns everything else: cancellation and deadlines, pivot budgets,
// best-iterate tracking for graceful degradation, oracle retries,
// certification, and the checkpoint / warm-start / final-snapshot cycle.

// separateFunc runs a formulation's oracles on a round's solution, adds the
// cuts they find violated, and returns the iterate's flow, its exact score
// (lower is better; see cutLoop.sampled) and whether anything was violated.
// It must finish every fallible oracle before adding its first cut: a failed
// call is retried after a backoff, and a retry must not repeat a cut.
type separateFunc func(ctx context.Context, sol *lp.Solution) (flow *eval.Flow, score float64, violated bool, err error)

// cutLoop is one formulation's view of the shared driver.
type cutLoop struct {
	// name identifies the loop in status and convergence messages.
	name string
	opts Options
	// solve runs one round's LP solve.
	solve    func(context.Context) (*lp.Solution, error)
	separate separateFunc
	// ckpt, when set, is the worst-case flow LP whose state the loop
	// restores from Options.Checkpoint or Options.WarmFrom before round
	// zero, checkpoints every Options.CheckpointEvery rounds, and snapshots
	// to Options.FinalSnapshot on certification. Loops with dense matrix
	// cuts (average case, capacity) leave it nil and never touch those
	// files.
	ckpt *FlowLP
	// sampled marks a score that is the iterate's exact objective value
	// (the mean maximum load over a traffic sample) rather than its
	// worst-case load. A degraded result then reports the score as its
	// Objective and evaluates GammaWC afresh; otherwise the score is
	// GammaWC, which certify checks against every channel, and Objective
	// is the LP bound of the best iterate's round.
	sampled bool
	// lastRoundIters makes a certified result report only the final
	// round's pivots as Result.Iterations, the potential-LP convention;
	// every other exit reports the cumulative count.
	lastRoundIters bool
}

// run drives the loop to certification or to an exhausted budget. A
// canceled context is an error; an expired deadline, a spent pivot budget
// or the round limit degrade to the best iterate seen (see degrade).
func (l *cutLoop) run(ctx context.Context) (*Result, error) {
	res := &Result{}
	start := 0
	if p := l.ckpt; p != nil {
		if r, it, ok := p.restoreCheckpoint(); ok {
			start, res.Iterations = r, it
		} else {
			p.restoreWarmStart()
		}
	}
	// The best iterate so far — the one with the smallest exact score —
	// backs graceful degradation.
	var bestFlow *eval.Flow
	var bestObj, bestScore float64
	for round := start; round < l.opts.rounds(); round++ {
		res.Rounds = round
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			return l.degrade(res, bestFlow, bestObj, bestScore, err)
		}
		sol, err := l.solve(ctx)
		if err != nil {
			return nil, err
		}
		if sol.Status == lp.IterLimit {
			if err := ctx.Err(); errors.Is(err, context.Canceled) {
				return nil, err
			}
			return l.degrade(res, bestFlow, bestObj, bestScore,
				fmt.Errorf("simplex budget exhausted at round %d (%s)", round, sol.Diag.Summary()))
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("design: %s: status %v at round %d", l.name, sol.Status, round)
		}
		res.Rounds = round + 1
		res.Iterations += sol.Iterations
		var flow *eval.Flow
		var score float64
		var violated bool
		err = l.retryOracle(ctx, func() (err error) {
			flow, score, violated, err = l.separate(ctx, sol)
			return err
		})
		if err != nil {
			return nil, err
		}
		if bestFlow == nil || score < bestScore {
			bestFlow, bestObj, bestScore = flow, sol.Objective, score
			if l.sampled {
				bestObj = score
			}
		}
		if !violated {
			return l.certify(ctx, res, flow, sol, score)
		}
		if l.ckpt != nil && (round+1)%l.opts.ckptEvery() == 0 {
			if err := l.ckpt.writeSnapshot(l.opts.Checkpoint, "checkpoint", round+1, res.Iterations); err != nil {
				return nil, err
			}
		}
	}
	res.Rounds = l.opts.rounds()
	return l.degrade(res, bestFlow, bestObj, bestScore,
		fmt.Errorf("%s did not converge in %d rounds", l.name, l.opts.rounds()))
}

// certify fills in the certified result for the oracle-approved iterate,
// then writes the final snapshot and removes the spent checkpoint. A
// worst-case loop's score is the worst case its oracle found on the
// separation representatives; should the exact all-channel worst case
// exceed it, the representatives did not cover every channel and the
// iterate is returned uncertified instead.
func (l *cutLoop) certify(ctx context.Context, res *Result, flow *eval.Flow, sol *lp.Solution, score float64) (*Result, error) {
	res.Flow = flow
	res.Objective = sol.Objective
	var err error
	res.GammaWC, _, err = flow.WorstCaseCtx(ctx, l.opts.Workers)
	if err != nil {
		return nil, err
	}
	res.HAvg = flow.HAvg()
	res.HNorm = flow.HNorm()
	if !l.sampled && res.GammaWC > score*(1+l.opts.tol()) {
		res.Reason = fmt.Sprintf("%s: worst case %v over all channels exceeds the %v certified on the representatives", l.name, res.GammaWC, score)
		return res, nil
	}
	res.Certified = true
	if l.lastRoundIters {
		res.Iterations = sol.Iterations
	}
	if p := l.ckpt; p != nil {
		if err := p.writeSnapshot(l.opts.FinalSnapshot, "final-snapshot", res.Rounds, res.Iterations); err != nil {
			return nil, err
		}
		if err := p.clearCheckpoint(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// degrade packages the best iterate seen so far as an uncertified Result
// when a budget (rounds, simplex pivots, deadline) runs out. With no
// feasible iterate to fall back on, the cause surfaces as an error wrapping
// ErrUncertified. Any checkpoint is left in place so the run can be resumed
// with a larger budget. A sampled loop's oracle never computed the best
// iterate's worst case, so it is evaluated here, off the (possibly expired)
// solve context.
func (l *cutLoop) degrade(res *Result, flow *eval.Flow, obj, score float64, cause error) (*Result, error) {
	if flow == nil {
		return nil, fmt.Errorf("%w: %v", ErrUncertified, cause)
	}
	res.GammaWC = score
	if l.sampled {
		var err error
		res.GammaWC, _, err = flow.WorstCaseCtx(context.Background(), l.opts.Workers)
		if err != nil {
			return nil, err
		}
	}
	res.Flow = flow
	res.Objective = obj
	res.HAvg = flow.HAvg()
	res.HNorm = flow.HNorm()
	res.Certified = false
	res.Reason = cause.Error()
	return res, nil
}

// retryOracle runs a round's separation step with the design layer's retry
// policy: oracle failures are retried up to Options.Retries times after an
// exponential backoff, since the oracles are stateless. Context errors
// abort immediately.
func (l *cutLoop) retryOracle(ctx context.Context, f func() error) error {
	var lastErr error
	for attempt := 0; attempt <= l.opts.retries(); attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		err := f()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return lastErr
}
