package lp

import "math"

// Devex pricing parameters.
const (
	// devexCandMax caps the partial-pricing candidate list: pricing scores
	// only this many attractive columns per iteration instead of scanning
	// every column, refilling by a rotating full scan when the list drains.
	devexCandMax = 96
	// devexWeightReset triggers a reference-framework reset when the
	// pivot's weight ratio explodes, which is Devex's standard guard
	// against weights drifting meaninglessly large.
	devexWeightReset = 1e12
)

// primalFromBasis runs the phase-2 primal simplex from the current basis,
// which must be primal feasible.
func (s *Solver) primalFromBasis() (Status, error) {
	return s.primal(s.costP)
}

// primal drives the revised primal simplex to optimality for the given cost
// vector. Degeneracy is handled by perturbation: when the inner loop stalls
// (many pivots without objective progress), the basic values receive tiny
// random positive shifts, which makes ratio tests decisive again. Because
// the shifts change only the right-hand side, reduced costs are untouched;
// after the perturbed problem solves, the true values are restored and any
// small primal infeasibility is repaired with the dual simplex (the basis
// is dual feasible by construction), iterating a bounded number of times
// with Bland's rule as the final resort.
func (s *Solver) primal(costs []float64) (Status, error) {
	for pass := 0; pass < 8; pass++ {
		st, perturbed, err := s.primalInner(costs, pass >= 3 || s.forceBland)
		if err != nil || st != Optimal {
			return st, err
		}
		if !perturbed {
			return Optimal, nil
		}
		// Restore the true right-hand side and repair feasibility.
		s.recomputeXB()
		worst := 0.0
		for _, v := range s.xB {
			if v < worst {
				worst = v
			}
		}
		if s.hasBounds {
			for r, v := range s.xB {
				if over := v - s.ub[s.basis[r]]; over > 0 && -over < worst {
					worst = -over
				}
			}
		}
		if worst >= -primalTol {
			return Optimal, nil
		}
		st, err = s.dualInner(costs)
		if err != nil {
			return 0, err
		}
		if st != Optimal {
			return st, nil
		}
		// Loop: the dual repair may expose further primal work.
	}
	return IterLimit, nil
}

// initDevex resets the Devex reference framework: all weights 1 (the current
// basis becomes the reference) and an empty candidate list. The rotating
// rebuild cursor deliberately survives, so successive runs keep sweeping the
// column range instead of re-scanning the same prefix.
func (s *Solver) initDevex(n int) {
	if cap(s.devexW) < n {
		s.devexW = make([]float64, n)
	}
	s.devexW = s.devexW[:n]
	for j := range s.devexW {
		s.devexW[j] = 1
	}
	s.cand = s.cand[:0]
	if s.candCursor >= n {
		s.candCursor = 0
	}
	s.chaos.corruptDevex(s.devexW)
}

// prices reports whether nonbasic column j prices out for the primal under
// duals y: an at-lower column improves when its reduced cost is negative, an
// at-upper column when it is positive (decreasing the variable then improves
// the objective). The unbounded-solver path is bit-for-bit the legacy
// d < -dualTol test.
func (s *Solver) prices(costs, y []float64, j int) (float64, bool) {
	d := s.reducedCost(costs, y, j)
	if s.hasBounds && s.atUpper[j] {
		return d, d > dualTol
	}
	return d, d < -dualTol
}

// priceDevex picks the entering column by Devex score d_j^2 / w_j, pricing
// only the candidate list. Candidates whose reduced cost went nonnegative
// are dropped; when the list drains, it is rebuilt by a rotating scan that
// stops after devexCandMax attractive columns. Returns -1 when no column
// prices out, which callers must confirm against exactly recomputed duals.
func (s *Solver) priceDevex(costs, y []float64) int {
	enter := -1
	best := 0.0
	out := s.cand[:0]
	for _, j := range s.cand {
		if s.pos[j] >= 0 || s.barred[j] {
			continue
		}
		d, ok := s.prices(costs, y, j)
		if !ok {
			continue
		}
		out = append(out, j)
		//lint:ignore nanguard devex weights are maintained >= 1
		if sc := d * d / s.devexW[j]; sc > best {
			best, enter = sc, j
		}
	}
	s.cand = out
	if enter >= 0 {
		return enter
	}
	n := len(costs)
	for t := 0; t < n && len(s.cand) < devexCandMax; t++ {
		j := s.candCursor
		s.candCursor++
		if s.candCursor == n {
			s.candCursor = 0
		}
		if s.pos[j] >= 0 || s.barred[j] {
			continue
		}
		d, ok := s.prices(costs, y, j)
		if !ok {
			continue
		}
		s.cand = append(s.cand, j)
		//lint:ignore nanguard devex weights are maintained >= 1
		if sc := d * d / s.devexW[j]; sc > best {
			best, enter = sc, j
		}
	}
	return enter
}

// updateDevex applies the Devex reference-weight update after a pivot:
// entering column enter pivoted at row value alpha, rho the pre-pivot BTRAN
// row of the leaving position, leaveVar the variable that left the basis.
// Only candidate-list columns are updated — the classic partial-Devex
// compromise: weights elsewhere go stale but resync at the next framework
// reset.
func (s *Solver) updateDevex(enter, leaveVar int, alpha float64, rho []float64) {
	//lint:ignore nanguard the ratio test selects |alpha| > pivotTol
	r2 := s.devexW[enter] / (alpha * alpha)
	if r2 > devexWeightReset {
		for j := range s.devexW {
			s.devexW[j] = 1
		}
		return
	}
	for _, j := range s.cand {
		if j == enter {
			continue
		}
		aj := s.dotCol(rho, j)
		if nw := aj * aj * r2; nw > s.devexW[j] {
			s.devexW[j] = nw
		}
	}
	if r2 < 1 {
		r2 = 1
	}
	s.devexW[leaveVar] = r2
}

// primalInner is one run of the primal simplex. It reports whether the
// basic values were perturbed (in which case the caller must restore and
// repair). blandOnly forces Bland's rule from the start (termination
// guarantee of last resort).
func (s *Solver) primalInner(costs []float64, blandOnly bool) (Status, bool, error) {
	m := s.nRows
	budget := s.maxIters()
	stallLimit := m/2 + 100
	sinceImprove := 0
	bland := blandOnly
	perturbed := false
	rng := uint64(0x9e3779b97f4a7c15)

	// The dual values y = c_B B^-1 are maintained incrementally across
	// pivots (an O(m) update) and recomputed from scratch periodically and
	// at refreshes to wash out drift.
	y := s.computeY(costs)
	s.initDevex(len(costs))

	for iter := 0; ; iter++ {
		if s.iterations >= budget {
			return IterLimit, perturbed, nil
		}
		// Context deadline as iteration budget, polled cheaply.
		if iter%128 == 0 && s.budgetUp() {
			return IterLimit, perturbed, nil
		}
		// Periodic accuracy probe and refresh.
		if iter%128 == 127 {
			if s.residual() > residCheck && !perturbed {
				if err := s.refresh(); err != nil {
					return 0, perturbed, err
				}
			}
			y = s.computeY(costs)
		}

		// Pricing: Devex with partial pricing, or first-index under Bland.
		enter := -1
		if bland {
			for j := range costs {
				if s.pos[j] >= 0 || s.barred[j] {
					continue
				}
				if _, ok := s.prices(costs, y, j); ok {
					enter = j
					break
				}
			}
		} else {
			enter = s.priceDevex(costs, y)
		}
		if enter < 0 {
			// Confirm optimality against exactly recomputed duals; the
			// incremental y may have drifted.
			y = s.computeY(costs)
			still := -1
			for j := range costs {
				if s.pos[j] >= 0 || s.barred[j] {
					continue
				}
				if _, ok := s.prices(costs, y, j); ok {
					still = j
					break
				}
			}
			if still < 0 {
				return Optimal, perturbed, nil
			}
			if !bland {
				// Seed the candidate list so the next pricing round makes
				// progress instead of re-scanning from the cursor.
				s.cand = append(s.cand[:0], still)
			}
			continue
		}
		dEnter := s.reducedCost(costs, y, enter)
		// dir is the entering variable's direction of travel: +1 increasing
		// from its lower bound, -1 decreasing from its upper bound.
		dir := 1.0
		if s.hasBounds && s.atUpper[enter] {
			dir = -1
		}

		u := s.ftran(enter)

		// Ratio test: largest step theta (the entering variable's travel
		// distance) keeping every basic value inside its box. A basic
		// variable blocks at its lower bound when it decreases (dir*u > 0)
		// and at its finite upper bound when it increases (dir*u < 0).
		leave := -1
		leaveUp := false
		theta := math.Inf(1)
		for r := 0; r < m; r++ {
			g := dir * u[r]
			var t float64
			var up bool
			if g > pivotTol {
				t = s.xB[r] / g
				if t < 0 {
					t = 0
				}
			} else if s.hasBounds && g < -pivotTol {
				bu := s.ub[s.basis[r]]
				if math.IsInf(bu, 1) {
					continue
				}
				t = (bu - s.xB[r]) / -g
				if t < 0 {
					t = 0
				}
				up = true
			} else {
				continue
			}
			if t < theta-ratioTieTol || (t <= theta+ratioTieTol && (leave < 0 ||
				(bland && s.basis[r] < s.basis[leave]) ||
				(!bland && math.Abs(u[r]) > math.Abs(u[leave])))) {
				theta, leave, leaveUp = t, r, up
			}
		}
		if s.hasBounds {
			// Bound flip: the entering variable reaches its own opposite
			// bound before any basic variable blocks. The basis is untouched
			// — translate the variable across its box, update the basic
			// values, and re-price (no pivot, no dual change).
			if ubE := s.ub[enter]; ubE < theta {
				//lint:ignore floatcmp exact zero only skips a no-op vector update
				if ubE != 0 {
					for i := 0; i < m; i++ {
						s.xB[i] -= dir * ubE * u[i]
					}
				}
				s.atUpper[enter] = !s.atUpper[enter]
				s.iterations++
				if ubE > degenStepTol {
					sinceImprove = 0
				} else {
					sinceImprove++
				}
				continue
			}
		}
		if leave < 0 {
			// Phantom-ray guard: a "ray" that grows a basic artificial is
			// no certificate — artificials cost nothing in phase 2 and
			// absorb a row violation as they grow. Pivot the artificial
			// out at step zero instead of riding the ray.
			for r := 0; r < m; r++ {
				if dir*u[r] < -pivotTol && s.kind[s.basis[r]] == kindArtificial {
					theta, leave, leaveUp = 0, r, false
					break
				}
			}
		}
		if leave < 0 {
			// Before certifying unboundedness, re-check the entering
			// column against exactly recomputed duals: drifted incremental
			// y can misread a non-descent column as improving, and a
			// genuine ray along it would not prove anything.
			y = s.computeY(costs)
			if _, ok := s.prices(costs, y, enter); !ok {
				continue // pricing was misled; re-price with fresh duals
			}
			if s.engine == EngineEta && s.etas.count() > 0 {
				// The ray was derived through the product-form file, which
				// may have drifted; certify unboundedness only from fresh
				// factors. Rebuild and re-derive — a genuine ray survives
				// the refresh and exits on the next pass with no etas.
				if err := s.refresh2(perturbed); err != nil {
					return 0, perturbed, err
				}
				y = s.computeY(costs)
				continue
			}
			return Unbounded, perturbed, nil
		}

		alpha := u[leave]
		leaveVar := s.basis[leave]
		// rho = row `leave` of the pre-pivot inverse: it feeds both the
		// incremental dual update and the Devex weight update, and must be
		// captured before the pivot rewrites the representation.
		rho := s.btranRow(leave)
		// The entering variable's new value and the basic-update step: with
		// dir = +1 both are theta (the legacy pivot exactly); entering from
		// the upper bound the variable lands at ub - theta while the basics
		// move by -theta*u.
		newVal := theta
		if s.hasBounds && s.atUpper[enter] {
			newVal = s.ub[enter] - theta
		}
		if err := s.pivot(enter, leave, u, dir*theta, newVal); err != nil {
			return 0, perturbed, err
		}
		if s.hasBounds && leaveUp {
			s.atUpper[leaveVar] = true
		}
		s.iterations++
		if s.basisRepaired {
			// A refactorization inside the pivot repaired (swapped) basis
			// columns; incremental state is void.
			s.basisRepaired = false
			y = s.computeY(costs)
		} else {
			// Incremental dual update: the new inverse's leave row is
			// rho/alpha, so y += dEnter * rho/alpha zeroes the entering
			// column's reduced cost.
			//lint:ignore nanguard the ratio test selects |alpha| > pivotTol
			step := dEnter / alpha
			//lint:ignore floatcmp exact zero only skips a no-op vector update
			if step != 0 {
				for i := range y {
					y[i] += step * rho[i]
				}
			}
			if !bland {
				s.updateDevex(enter, leaveVar, alpha, rho)
			}
		}

		// Stall handling: a stall is a long run of *degenerate* pivots
		// (zero step length) -- the direct cycling signal, insensitive to
		// the tiny objective jitter. Perturb the basic values once to make
		// ratio tests decisive; if degeneracy persists, fall back to
		// Bland's rule.
		if theta > degenStepTol {
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove > stallLimit {
				sinceImprove = 0
				if !perturbed && !blandOnly {
					perturbed = true
					mag := xbPerturb
					if s.perturbScale > 1 {
						// Ladder escalation (recover.go) amplifies the
						// anti-cycling shift along with the cost jitter.
						mag *= s.perturbScale
					}
					for r := range s.xB {
						rng = rng*6364136223846793005 + 1442695040888963407
						f := float64(rng>>11) / (1 << 53)
						s.xB[r] += mag * (0.5 + f)
					}
				} else if !bland {
					if err := s.refresh2(perturbed); err != nil {
						return 0, perturbed, err
					}
					y = s.computeY(costs)
					bland = true
				}
			}
		}
	}
}

// refresh2 refactorizes; when the basic values are perturbed it leaves xB
// untouched (refactorizing would silently undo the perturbation).
func (s *Solver) refresh2(skipXB bool) error {
	if err := s.factorize(); err != nil {
		return err
	}
	if !skipXB {
		s.recomputeXB()
	}
	return nil
}

// dualSolve is the warm-start entry point after cuts or RHS changes: dual
// simplex to feasibility, then a primal polish.
func (s *Solver) dualSolve() (Status, error) {
	st, err := s.dualInner(s.costP)
	if err != nil || st != Optimal {
		return st, err
	}
	return s.primal(s.costP)
}

// dualInner runs the revised dual simplex until primal feasibility, dual
// unboundedness (primal infeasible), or a sub-budget intended to fail fast
// into a cold solve. Bounded variables use the simple (no bound-flip
// ratio test) variant: an entering variable may overshoot its own upper
// bound, and the next iteration repairs it by selecting that row as
// leaving-above-upper.
func (s *Solver) dualInner(costs []float64) (Status, error) {
	m := s.nRows
	budget := s.maxIters()
	subBudget := s.iterations + 20000 + 20*m
	if subBudget > budget {
		subBudget = budget
	}
	bland := s.forceBland
	// Dantzig's rule picks the leaving row until this call has made more
	// than blandAfter pivots; from then on Bland's rule holds for the rest
	// of the call. The count is of pivots, not of pivots without progress: it
	// never resets.
	pivots := 0
	blandAfter := 2*m + 200
	y := s.computeY(costs)

	for iter := 0; ; iter++ {
		if s.iterations >= subBudget {
			return IterLimit, nil
		}
		// Context deadline as iteration budget, polled cheaply.
		if iter%128 == 0 && s.budgetUp() {
			return IterLimit, nil
		}
		if iter%128 == 127 {
			if s.residual() > residCheck {
				if err := s.refresh(); err != nil {
					return 0, err
				}
			}
			y = s.computeY(costs)
		}

		// Leaving row: worst box violation — a basic value below zero (exits
		// to its lower bound) or above its finite upper bound (exits to the
		// bound). The unbounded-solver scan reduces exactly to the legacy
		// most-negative selection.
		leave := -1
		leaveUp := false
		worst := primalTol
		for r := 0; r < m; r++ {
			if v := -s.xB[r]; v > worst {
				worst, leave, leaveUp = v, r, false
			} else if s.hasBounds {
				if over := s.xB[r] - s.ub[s.basis[r]]; over > worst {
					worst, leave, leaveUp = over, r, true
				}
			}
			if bland && leave >= 0 {
				break
			}
		}
		if leave < 0 {
			return Optimal, nil // primal feasible
		}
		// sgn orients the leaving row: +1 repairs a below-lower violation
		// (the basic value must rise), -1 an above-upper one (it must fall).
		sgn := 1.0
		if leaveUp {
			sgn = -1
		}

		// rho = the leaving row of the inverse, via BTRAN: alpha_j for any
		// column is then a sparse dot against it.
		rho := s.btranRow(leave)

		// Entering column: among nonbasic j whose admissible move (dirj = +1
		// off the lower bound, -1 off the upper) pushes the leaving value the
		// right way (effective alpha < 0), minimize the dual ratio
		// |d_j| / -alphaEff. With no bounds this is the legacy scan verbatim.
		enter := -1
		best := math.Inf(1)
		var bestAlpha float64 // effective alpha of the incumbent
		for j := range costs {
			if s.pos[j] >= 0 || s.barred[j] {
				continue
			}
			alpha := s.dotCol(rho, j)
			dirj := 1.0
			if s.hasBounds && s.atUpper[j] {
				dirj = -1
			}
			ae := sgn * dirj * alpha
			if ae >= -pivotTol {
				continue
			}
			d := s.reducedCost(costs, y, j)
			if dirj < 0 {
				d = -d // at-upper: dual feasibility keeps d <= 0
			}
			if d < 0 {
				d = 0 // tolerate tiny dual infeasibility
			}
			ratio := d / -ae
			if ratio < best-ratioTieTol ||
				(ratio <= best+ratioTieTol && (enter < 0 ||
					(bland && j < enter) ||
					(!bland && -ae > -bestAlpha))) {
				best, enter, bestAlpha = ratio, j, ae
			}
		}
		if enter < 0 {
			// Before certifying infeasibility, re-derive the dual ray on
			// fresh factors: the leaving row was computed through the eta
			// file, and a drifted one can hide every admissible entering
			// column. On exact factors the claim stands or the pivot found.
			if s.etas.count() > 0 {
				if err := s.refresh(); err != nil {
					return 0, err
				}
				y = s.computeY(costs)
				continue
			}
			return Infeasible, nil
		}

		dEnter := s.reducedCost(costs, y, enter)
		dirj := 1.0
		if s.hasBounds && s.atUpper[enter] {
			dirj = -1
		}
		u := s.ftran(enter)
		alpha := u[leave]
		if math.Abs(alpha) <= pivotTol {
			// The entering scan saw an admissible alpha_enter through BTRAN,
			// but the FTRAN image disagrees: the product-form update file
			// has drifted at the tolerance edge. Pivoting here would divide
			// by ~0 and poison the basis; rebuild the factors and re-price.
			// On fresh factors the two passes agree to rounding, so a
			// persistent mismatch is a genuine numerical failure.
			if s.etas.count() == 0 {
				return 0, ErrNumerical
			}
			if err := s.refresh(); err != nil {
				return 0, err
			}
			y = s.computeY(costs)
			continue
		}
		// The leaving variable travels to its exit bound; the entering
		// variable moves t >= 0 from its own bound along dirj. With no
		// bounds: target 0, dirj +1 — the legacy theta = xB/alpha exactly.
		leaveVar := s.basis[leave]
		target := 0.0
		if leaveUp {
			target = s.ub[leaveVar]
		}
		//lint:ignore nanguard the guard above bounds alpha away from 0
		t := (s.xB[leave] - target) / (dirj * alpha)
		newVal := t
		if s.hasBounds && s.atUpper[enter] {
			newVal = s.ub[enter] - t
		}
		if err := s.pivot(enter, leave, u, dirj*t, newVal); err != nil {
			return 0, err
		}
		if s.hasBounds && leaveUp {
			s.atUpper[leaveVar] = true
		}
		s.iterations++
		if s.basisRepaired {
			s.basisRepaired = false
			y = s.computeY(costs)
		} else {
			//lint:ignore nanguard the entering scan selects alpha < -pivotTol
			step := dEnter / alpha
			//lint:ignore floatcmp exact zero only skips a no-op vector update
			if step != 0 {
				for i := range y {
					y[i] += step * rho[i]
				}
			}
		}

		pivots++
		if pivots > blandAfter {
			bland = true
		}
	}
}
