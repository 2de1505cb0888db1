package lp

import (
	"fmt"
	"math"
)

// This file is the basis-inverse engine layer: the simplex drivers in
// simplex.go speak only through factorize / ftran / btranRow / computeY /
// pivot / recomputeXB, and each call dispatches on Solver.engine. The dense
// engine (an explicit m x m inverse updated by rank-1 pivots) lives here;
// the sparse engine (LU factors plus an eta file) lives in lu.go and eta.go.

// factorize rebuilds the basis representation from the basis column set,
// repairing numerically dependent basis columns in-pass by substituting
// artificial columns.
func (s *Solver) factorize() error {
	s.diag.Refactorizations++
	if s.chaos.failFactor(s.engine) {
		return fmt.Errorf("%w: injected factorization failure", ErrNumerical)
	}
	if s.engine == EngineDense {
		return s.factorizeDense()
	}
	return s.factorizeSparse()
}

// ftran returns u = Binv * A[col] as a dense vector indexed by basis
// position (length nRows). The returned slice is solver-owned scratch,
// valid until the next ftran or pivot.
func (s *Solver) ftran(col int) []float64 {
	if s.engine == EngineDense {
		return s.ftranDense(col)
	}
	return s.ftranEta(col)
}

// btranRow returns row r of Binv (the vector rho with rho^T = e_r^T Binv,
// indexed by constraint row). The returned slice is solver-owned scratch
// distinct from ftran's, so a rho computed before a pivot stays valid while
// the entering column's FTRAN image is alive. The eta engine runs a full
// BTRAN of the unit vector e_r.
func (s *Solver) btranRow(r int) []float64 {
	if s.engine == EngineDense {
		rho := s.growRho()
		copy(rho, s.binv[r])
		return rho
	}
	w := s.growPosSp()
	clear(w)
	w[r] = 1
	return s.btranEta(w)
}

// computeY returns y with y = c_B^T * Binv for the given cost vector.
func (s *Solver) computeY(costs []float64) []float64 {
	if s.engine == EngineDense {
		return s.computeYDense(costs)
	}
	w := s.growPosSp()
	for r, col := range s.basis {
		w[r] = costs[col]
	}
	z := s.btranEta(w)
	y := s.growY()
	copy(y, z)
	return y
}

// pivot makes column `enter` basic in row `leaveRow`, given u = Binv*A[enter],
// the step to apply to the other basic values (xB[i] -= step*u[i]) and the
// entering variable's new value. For the legacy from-lower pivot both equal
// theta; a bounded pivot entering from its upper bound passes step = -theta
// and newVal = ub - theta. It updates the inverse representation (a rank-1
// elimination for the dense engine, an eta append — and possibly a
// refactorization — for the eta engine), the basic solution values, and the
// basis bookkeeping.
func (s *Solver) pivot(enter, leaveRow int, u []float64, step, newVal float64) error {
	// Bookkeeping first: if the eta engine decides to refactorize inside
	// pivotEta, the factorization must see the post-pivot basis (and, with
	// bounds, the entering column must already read as basic-not-at-upper
	// when recomputeXB adjusts the right-hand side).
	old := s.basis[leaveRow]
	s.pos[old] = -1
	s.basis[leaveRow] = enter
	s.pos[enter] = leaveRow
	if s.hasBounds {
		s.atUpper[enter] = false
	}
	s.xB[leaveRow] = newVal
	if s.engine == EngineDense {
		s.pivotDense(leaveRow, u, step)
		return nil
	}
	return s.pivotEta(leaveRow, u, step)
}

// dotCol computes vec . A[col] for a row-space vector (a BTRAN row or a
// dual vector) against a sparse column.
func (s *Solver) dotCol(vec []float64, col int) float64 {
	var acc float64
	for t, ri := range s.colR[col] {
		acc += vec[ri] * s.colV[col][t]
	}
	return acc
}

// reducedCost returns costs[j] - y . A[j].
func (s *Solver) reducedCost(costs, y []float64, j int) float64 {
	return costs[j] - s.dotCol(y, j)
}

// Scratch growers: each returns the named solver-owned buffer resized to
// nRows, allocating only when the row count outgrew the capacity.

func (s *Solver) growY() []float64 {
	if cap(s.y) < s.nRows {
		s.y = make([]float64, s.nRows)
	}
	s.y = s.y[:s.nRows]
	return s.y
}

func (s *Solver) growU() []float64 {
	if cap(s.u) < s.nRows {
		s.u = make([]float64, s.nRows)
	}
	s.u = s.u[:s.nRows]
	return s.u
}

func (s *Solver) growRho() []float64 {
	if cap(s.rho) < s.nRows {
		s.rho = make([]float64, s.nRows)
	}
	s.rho = s.rho[:s.nRows]
	return s.rho
}

func (s *Solver) growRowSp() []float64 {
	if cap(s.rowSp) < s.nRows {
		s.rowSp = make([]float64, s.nRows)
	}
	s.rowSp = s.rowSp[:s.nRows]
	return s.rowSp
}

func (s *Solver) growPosSp() []float64 {
	if cap(s.posSp) < s.nRows {
		s.posSp = make([]float64, s.nRows)
	}
	s.posSp = s.posSp[:s.nRows]
	return s.posSp
}

// factorizeDense rebuilds the dense basis inverse from the basis column set
// using Gauss-Jordan elimination with partial pivoting. When a basis column
// proves linearly dependent, it is repaired in-pass: a nonbasic artificial
// (identity) column is substituted, using the row operations accumulated so
// far (the building inverse) to transform it, and elimination continues.
// The working matrix rows live in solver-owned scratch (s.bmat), so repeated
// refactorizations allocate nothing once the solver reaches steady state.
func (s *Solver) factorizeDense() error {
	m := s.nRows
	// B laid out dense; binv starts as identity and receives the inverse.
	if cap(s.bmat) < m {
		grown := make([][]float64, m)
		copy(grown, s.bmat[:cap(s.bmat)])
		s.bmat = grown
	}
	s.bmat = s.bmat[:m]
	B := s.bmat
	if cap(s.binv) < m {
		grown := make([][]float64, m)
		copy(grown, s.binv[:cap(s.binv)])
		s.binv = grown
	}
	s.binv = s.binv[:m]
	for r := 0; r < m; r++ {
		if cap(B[r]) < m {
			B[r] = make([]float64, m)
		}
		B[r] = B[r][:m]
		if cap(s.binv[r]) < m {
			s.binv[r] = make([]float64, m)
		}
		s.binv[r] = s.binv[r][:m]
		for c := 0; c < m; c++ {
			B[r][c] = 0
			s.binv[r][c] = 0
		}
		s.binv[r][r] = 1
	}
	for c, col := range s.basis {
		for t, ri := range s.colR[col] {
			B[ri][c] = s.colV[col][t]
		}
	}
	repairs := 0
	for c := 0; c < m; c++ {
		// Partial pivot within column c among rows >= c.
		p, pmag := -1, pivotTol
		for r := c; r < m; r++ {
			if mag := math.Abs(B[r][c]); mag > pmag {
				p, pmag = r, mag
			}
		}
		if p < 0 {
			// Dependent column: substitute a nonbasic artificial whose
			// transformed image (column of the inverse built so far) has a
			// usable pivot below row c, then retry this column.
			bad := s.basis[c]
			repairs++
			if repairs > m+1 {
				return fmt.Errorf("%w: basis repair did not converge", ErrNumerical)
			}
			best, bestMag := -1, pivotTol
			for r := 0; r < m; r++ {
				a := s.artOf[r]
				if a == bad {
					continue // do not re-substitute the failing column
				}
				if s.pos[a] >= 0 && s.basis[s.pos[a]] == a && s.pos[a] != c {
					continue // already basic elsewhere
				}
				for q := c; q < m; q++ {
					if mag := math.Abs(s.binv[q][r]); mag > bestMag {
						best, bestMag = r, mag
						break
					}
				}
			}
			if best < 0 {
				return fmt.Errorf("%w: singular basis: column %d dependent at position %d, no repair available", ErrNumerical, bad, c)
			}
			art := s.artOf[best]
			sign := s.colV[art][0]
			s.pos[bad] = -1
			s.basis[c] = art
			s.pos[art] = c
			for q := 0; q < m; q++ {
				B[q][c] = sign * s.binv[q][best]
			}
			c-- // redo this column with the substituted entries
			continue
		}
		if p != c {
			B[p], B[c] = B[c], B[p]
			s.binv[p], s.binv[c] = s.binv[c], s.binv[p]
		}
		piv := B[c][c]
		//lint:ignore nanguard partial pivoting above selected |piv| > pivotTol
		inv := 1 / piv
		for k := 0; k < m; k++ {
			B[c][k] *= inv
			s.binv[c][k] *= inv
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := B[r][c]
			//lint:ignore floatcmp exact zero only skips a no-op row operation
			if f == 0 {
				continue
			}
			br, bc := B[r], B[c]
			ir, ic := s.binv[r], s.binv[c]
			for k := 0; k < m; k++ {
				br[k] -= f * bc[k]
				ir[k] -= f * ic[k]
			}
		}
	}
	// Gauss-Jordan applied the same row operations (including swaps) to B
	// and to the identity, so binv is exactly B^{-1} with rows indexed by
	// basis position.
	return nil
}

// ftranDense computes u = Binv * A[col] against the explicit inverse.
func (s *Solver) ftranDense(col int) []float64 {
	m := s.nRows
	u := s.growU()
	rows, vals := s.colR[col], s.colV[col]
	for r := 0; r < m; r++ {
		var acc float64
		brow := s.binv[r]
		for t, ri := range rows {
			acc += brow[ri] * vals[t]
		}
		u[r] = acc
	}
	return u
}

// computeYDense accumulates y = c_B^T * Binv row by row.
func (s *Solver) computeYDense(costs []float64) []float64 {
	m := s.nRows
	y := s.growY()
	for i := range y {
		y[i] = 0
	}
	for r, col := range s.basis {
		cb := costs[col]
		//lint:ignore floatcmp exact zero only skips a no-op row accumulation
		if cb == 0 {
			continue
		}
		brow := s.binv[r]
		for i := 0; i < m; i++ {
			y[i] += cb * brow[i]
		}
	}
	return y
}

// pivotDense updates the explicit inverse by a rank-1 elimination and the
// basic solution values incrementally.
func (s *Solver) pivotDense(leaveRow int, u []float64, step float64) {
	m := s.nRows
	piv := u[leaveRow]
	//lint:ignore nanguard callers select |u[leaveRow]| > pivotTol in the ratio test
	inv := 1 / piv
	lrow := s.binv[leaveRow]
	for k := 0; k < m; k++ {
		lrow[k] *= inv
	}
	for r := 0; r < m; r++ {
		if r == leaveRow {
			continue
		}
		f := u[r]
		//lint:ignore floatcmp exact zero only skips a no-op row update
		if f == 0 {
			continue
		}
		br := s.binv[r]
		for k := 0; k < m; k++ {
			br[k] -= f * lrow[k]
		}
		s.xB[r] -= f * step
	}
}

// residual returns ||A_B xB - b||_inf, a cheap accuracy probe computed from
// the sparse basis columns.
func (s *Solver) residual() float64 {
	m := s.nRows
	if cap(s.work) < m {
		s.work = make([]float64, m)
	}
	res := s.work[:m]
	for i := 0; i < m; i++ {
		res[i] = -s.rhs[i]
	}
	for r, col := range s.basis {
		x := s.xB[r]
		//lint:ignore floatcmp exact zero only skips a no-op residual term
		if x == 0 {
			continue
		}
		for t, ri := range s.colR[col] {
			res[ri] += s.colV[col][t] * x
		}
	}
	if s.hasBounds {
		// Nonbasic-at-upper variables contribute their bound values to the
		// row activities.
		for _, j32 := range s.ubList {
			j := int(j32)
			if s.pos[j] >= 0 || !s.atUpper[j] {
				continue
			}
			x := s.ub[j]
			//lint:ignore floatcmp exact zero only skips a no-op residual term
			if x == 0 {
				continue
			}
			for t, ri := range s.colR[j] {
				res[ri] += s.colV[j][t] * x
			}
		}
	}
	var worst float64
	for _, v := range res {
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	return worst
}

// refresh refactorizes and recomputes xB, restoring numerical accuracy.
func (s *Solver) refresh() error {
	if err := s.factorize(); err != nil {
		return err
	}
	s.recomputeXB()
	return nil
}
