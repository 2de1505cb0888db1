package lp

// The eta file: the product-form-of-the-inverse update sequence layered on
// top of the sparse LU factors. Each simplex pivot appends one eta vector
// (the FTRAN image of the entering column, pivoted at the leaving row's
// basis position), so after k pivots
//
//	Binv = E_k · … · E_1 · (LU)^{-1}.
//
// FTRAN applies the factors first and then the etas in append order; BTRAN
// applies the etas transposed in reverse order and then the factors
// transposed. The file is rebuilt empty at every refactorization.

const (
	// etaRefactorCount bounds the number of update etas before a
	// refactorization: FTRAN/BTRAN cost grows linearly with the file, while
	// refactorization amortizes it back to the LU fill.
	etaRefactorCount = 64
	// etaRefactorFill triggers an early refactorization when the eta file's
	// nonzeros exceed this multiple of the factor nonzeros — the signature
	// of dense spike columns polluting the product form.
	etaRefactorFill = 8
)

// Op kinds in the product-form file.
const (
	// etaOpPivot is a simplex pivot update: the FTRAN image of the entering
	// column, pivoted at the leaving basis position.
	etaOpPivot uint8 = iota
	// etaOpBorder is a basis extension from AddCut: the cut-extended basis
	// is block lower-triangular [[B 0] [a^T g]], so its inverse is the old
	// representation plus one border elimination. A border op's FTRAN
	// formula is exactly a pivot op's BTRAN formula and vice versa, which
	// is why the two kinds share storage.
	etaOpBorder
)

// etaFile stores the update ops column-compressed: for op t, the pivot
// basis position r[t] with pivot value piv[t] (the cut's logical-column
// entry g for borders), and the off-pivot entries (pos, val) in the
// half-open segment ptr[t]..ptr[t+1] (the basic-column coefficients a of
// the new row for borders).
type etaFile struct {
	pos  []int32
	val  []float64
	ptr  []int32
	r    []int32
	piv  []float64
	kind []uint8
}

func (e *etaFile) reset() {
	e.pos = e.pos[:0]
	e.val = e.val[:0]
	e.ptr = append(e.ptr[:0], 0)
	e.r = e.r[:0]
	e.piv = e.piv[:0]
	e.kind = e.kind[:0]
}

// count reports the number of update ops since the last refactorization.
func (e *etaFile) count() int { return len(e.r) }

// nnz reports the total stored entries including pivots.
func (e *etaFile) nnz() int { return len(e.val) + len(e.piv) }

// appendBorder records a basis extension at position r with diagonal g and
// prior-position coefficients aB (dense, indexed by position, length r).
func (e *etaFile) appendBorder(r int, g float64, aB []float64) {
	e.r = append(e.r, int32(r))
	e.piv = append(e.piv, g)
	e.kind = append(e.kind, etaOpBorder)
	for p, a := range aB {
		//lint:ignore floatcmp exact zeros stay structurally absent from the border
		if a != 0 {
			e.pos = append(e.pos, int32(p))
			e.val = append(e.val, a)
		}
	}
	e.ptr = append(e.ptr, int32(len(e.pos)))
}

// applyFtran applies the ops in append order to the position-space vector v.
// Border rows must already carry their raw right-hand-side components.
func (e *etaFile) applyFtran(v []float64) {
	for t := 0; t < len(e.r); t++ {
		// Subslice the segment once so the inner loops index two equal-length
		// slices; the compiler drops the per-element bounds checks.
		pos := e.pos[e.ptr[t]:e.ptr[t+1]]
		val := e.val[e.ptr[t]:e.ptr[t+1]]
		if e.kind[t] == etaOpBorder {
			acc := v[e.r[t]]
			for k, p := range pos {
				acc -= val[k] * v[p]
			}
			//lint:ignore nanguard border diagonals are ±1 by construction (AddCut logicals)
			v[e.r[t]] = acc / e.piv[t]
			continue
		}
		//lint:ignore nanguard pivots pass the ratio-test magnitude bound at append time
		vr := v[e.r[t]] / e.piv[t]
		//lint:ignore floatcmp exact zero skips a structurally empty eta step
		if vr != 0 {
			for k, p := range pos {
				v[p] -= val[k] * vr
			}
		}
		v[e.r[t]] = vr
	}
}

// applyBtran applies the transposed ops in reverse order to the
// position-space vector w.
func (e *etaFile) applyBtran(w []float64) {
	for t := len(e.r) - 1; t >= 0; t-- {
		// Subslice the segment once so the inner loops index two equal-length
		// slices; the compiler drops the per-element bounds checks.
		pos := e.pos[e.ptr[t]:e.ptr[t+1]]
		val := e.val[e.ptr[t]:e.ptr[t+1]]
		if e.kind[t] == etaOpBorder {
			//lint:ignore nanguard border diagonals are ±1 by construction (AddCut logicals)
			zt := w[e.r[t]] / e.piv[t]
			//lint:ignore floatcmp exact zero skips a structurally empty border step
			if zt != 0 {
				for k, p := range pos {
					w[p] -= val[k] * zt
				}
			}
			w[e.r[t]] = zt
			continue
		}
		acc := w[e.r[t]]
		for k, p := range pos {
			acc -= val[k] * w[p]
		}
		//lint:ignore nanguard pivots pass the ratio-test magnitude bound at append time
		w[e.r[t]] = acc / e.piv[t]
	}
}

// pivotEta appends the pivot's eta vector, updates the basic solution values
// incrementally, and refactorizes when the eta file has grown past the count
// or fill thresholds. Callers have already updated basis/pos/xB[leaveRow],
// so a refactorization here sees the post-pivot basis.
func (s *Solver) pivotEta(leaveRow int, u []float64, step float64) error {
	s.chaos.perturbEta(u)
	e := &s.etas
	e.r = append(e.r, int32(leaveRow))
	e.piv = append(e.piv, u[leaveRow])
	e.kind = append(e.kind, etaOpPivot)
	for i, ui := range u {
		if i == leaveRow {
			continue
		}
		//lint:ignore floatcmp exact zeros stay structurally absent from the eta
		if ui == 0 {
			continue
		}
		e.pos = append(e.pos, int32(i))
		e.val = append(e.val, ui)
		s.xB[i] -= ui * step
	}
	e.ptr = append(e.ptr, int32(len(e.pos)))
	if e.count() >= etaRefactorCount || e.nnz() > etaRefactorFill*(s.lu.nnz()+s.nRows) {
		// Counted here because this scheduled rebuild bypasses factorize
		// (and with it the chaos suites' failFactor injection point).
		s.diag.Refactorizations++
		if err := s.factorizeSparse(); err != nil {
			s.factorOK = false
			return err
		}
		if s.luRepairs > 0 {
			// The repair swapped basis columns; the incremental xB and the
			// drivers' incremental duals no longer match the repaired basis.
			s.basisRepaired = true
			s.recomputeXB()
		}
	}
	return nil
}
