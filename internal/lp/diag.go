package lp

import (
	"fmt"
	"strings"
	"time"
)

// Diagnostics is the numerical post-mortem of one Solve/SolveCtx call: which
// recovery-ladder rungs fired, how much work the solve consumed, and how
// trustworthy the returned basis is. A clean solve has Attempts == 1 and an
// empty Ladder.
type Diagnostics struct {
	// Ladder lists the recovery rungs applied, in escalation order (see
	// recover.go for the rung sequence). Empty on a clean solve.
	Ladder []string
	// Attempts counts simplex runs, including the first; rung escalations
	// add one attempt each.
	Attempts int
	// Refactorizations counts basis factorizations during the solve
	// (scheduled eta-file rebuilds, accuracy refreshes, and ladder-forced
	// rebuilds alike).
	Refactorizations int
	// Residual is the basis accuracy ||A_B xB - b||_inf measured at exit;
	// populated for Optimal and Infeasible outcomes, zero otherwise.
	Residual float64
	// DualGap is the worst reduced-cost violation against the true
	// (unjittered) costs at an Optimal exit. It is measured only when the
	// ladder fired (clean solves skip the full-column scan), and values
	// around the jitter magnitude are normal.
	DualGap float64
	// Iterations is the total pivot count across all attempts and phases.
	Iterations int
	// Elapsed is the wall-clock duration of the solve.
	Elapsed time.Duration
	// EngineFallback reports that the ladder abandoned the sparse eta
	// engine for the dense oracle engine during this solve.
	EngineFallback bool
	// BudgetExhausted reports that the solve ended at IterLimit: the pivot
	// budget (MaxIters) or the context deadline ran out before convergence.
	BudgetExhausted bool
	// DeadlineHit reports that the context expired (deadline or
	// cancellation) during the solve; the outcome is then IterLimit.
	DeadlineHit bool
}

// Summary renders the diagnostics as a one-line report for logs and CLI
// failure output.
func (d Diagnostics) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "attempts=%d refactorizations=%d iterations=%d elapsed=%s",
		d.Attempts, d.Refactorizations, d.Iterations, d.Elapsed.Round(time.Microsecond))
	if len(d.Ladder) > 0 {
		fmt.Fprintf(&b, " ladder=%s", strings.Join(d.Ladder, ","))
	}
	if d.Residual > 0 {
		fmt.Fprintf(&b, " residual=%.3g", d.Residual)
	}
	if d.DualGap > 0 {
		fmt.Fprintf(&b, " dual-gap=%.3g", d.DualGap)
	}
	if d.EngineFallback {
		b.WriteString(" engine-fallback=dense")
	}
	if d.BudgetExhausted {
		b.WriteString(" budget-exhausted=true")
	}
	if d.DeadlineHit {
		b.WriteString(" deadline-hit=true")
	}
	return b.String()
}

// DiagError is returned when the recovery ladder is exhausted without
// producing a trustworthy basis. It wraps ErrNumerical (so errors.Is keeps
// working) and carries the full Diagnostics for reporting.
type DiagError struct {
	Diag Diagnostics
	Err  error
}

// Error renders the underlying failure plus the ladder summary.
func (e *DiagError) Error() string {
	return fmt.Sprintf("%v (after recovery ladder: %s)", e.Err, e.Diag.Summary())
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *DiagError) Unwrap() error { return e.Err }
