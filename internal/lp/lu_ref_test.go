package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refSelectPivot is the exhaustive Markowitz scan that luSelectPivot's
// bucketed search must reproduce pivot for pivot: every step rescans all
// positions for a singleton column, then all rows for a singleton row, then
// every unpivoted column's values for the minimum merit, recomputing each
// column's max |value| from scratch. Ties go to the first entry in
// column-major scan order unless strictly larger in magnitude, and the scan
// stops after the first column holding a merit-zero pivot.
func (s *Solver) refSelectPivot() (pr, pc, pIdx int) {
	w := &s.luw
	m := s.nRows
	for c := 0; c < m; c++ {
		if w.colPiv[c] || len(w.colRows[c]) != 1 {
			continue
		}
		if math.Abs(w.colVals[c][0]) > pivotTol {
			return int(w.colRows[c][0]), c, 0
		}
	}
	for r := 0; r < m; r++ {
		if w.rowPiv[r] || w.rowCnt[r] != 1 {
			continue
		}
		if pr, pc, pIdx = s.refSingletonRowPivot(r); pc >= 0 {
			return pr, pc, pIdx
		}
	}
	bestMerit := int64(math.MaxInt64)
	bestMag := 0.0
	pr, pc, pIdx = -1, -1, -1
	for c := 0; c < m; c++ {
		if w.colPiv[c] {
			continue
		}
		rows, vals := w.colRows[c], w.colVals[c]
		colMax := 0.0
		for _, v := range vals {
			if a := math.Abs(v); a > colMax {
				colMax = a
			}
		}
		if colMax <= pivotTol {
			continue
		}
		thr := colMax * markowitzStab
		cc := int64(len(rows) - 1)
		for i, r := range rows {
			a := math.Abs(vals[i])
			if a < thr || a <= pivotTol {
				continue
			}
			merit := cc * int64(w.rowCnt[r]-1)
			if merit < bestMerit || (merit == bestMerit && a > bestMag) {
				bestMerit, bestMag = merit, a
				pr, pc, pIdx = int(r), c, i
			}
		}
		if bestMerit == 0 {
			break
		}
	}
	return pr, pc, pIdx
}

// refSingletonRowPivot is the reference scan's singleton-row check: the
// first live column referencing row r, accepted if its entry passes the
// stability threshold of a freshly computed column max.
func (s *Solver) refSingletonRowPivot(r int) (int, int, int) {
	w := &s.luw
	for _, q := range w.rowCols[r] {
		if w.colPiv[q] {
			continue
		}
		rows, vals := w.colRows[q], w.colVals[q]
		idx, colMax := -1, 0.0
		for i, ri := range rows {
			a := math.Abs(vals[i])
			if a > colMax {
				colMax = a
			}
			if int(ri) == r {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		if a := math.Abs(vals[idx]); a > pivotTol && a >= colMax*markowitzStab {
			return r, int(q), idx
		}
		return -1, -1, -1
	}
	return -1, -1, -1
}

// checkPivotOrder runs factorizeSparse's elimination loop on the current
// basis, asserting before every selection that luSelectPivot and the
// reference scan agree on (row, position, index). It leaves the solver
// factorized exactly as factorizeSparse would and reports the selections
// compared and the repairs made.
func (s *Solver) checkPivotOrder() (selections, repairs int, err error) {
	s.luLoad()
	sel := func() (int, int, int, error) {
		selections++
		r0, c0, i0 := s.refSelectPivot()
		r1, c1, i1 := s.luSelectPivot()
		if r0 != r1 || c0 != c1 || i0 != i1 {
			return 0, 0, 0, fmt.Errorf("selection %d: reference pivot (%d,%d,%d), bucketed (%d,%d,%d)",
				selections, r0, c0, i0, r1, c1, i1)
		}
		return r1, c1, i1, nil
	}
	for step := 0; step < s.nRows; step++ {
		pr, pc, pIdx, err := sel()
		if err != nil {
			return selections, repairs, err
		}
		for pc < 0 {
			if err := s.luRepair(); err != nil {
				return selections, repairs, err
			}
			repairs++
			if pr, pc, pIdx, err = sel(); err != nil {
				return selections, repairs, err
			}
		}
		s.luEliminate(pr, pc, pIdx)
	}
	s.factorOK = true
	return selections, repairs, nil
}

// randomBasisSolver builds an m-row model of random sparse columns and
// installs a basis mixing structurals with logicals and artificials. With
// nearSingular set, every fourth structural's partner is an exact
// duplicate, a scaled copy, a sum with another column or numerically null,
// and partners enter the basis together, so the elimination runs out of
// acceptable pivots and goes through luRepair.
func randomBasisSolver(rng *rand.Rand, m int, nearSingular bool) *Solver {
	type entry struct {
		row int
		v   float64
	}
	nStruct := 2 * m
	cols := make([][]entry, nStruct)
	for j := range cols {
		nnz := 1 + rng.Intn(5)
		for _, r := range rng.Perm(m)[:nnz] {
			// Magnitudes spanning several decades, with repeats so exact
			// magnitude ties between candidate pivots occur.
			v := []float64{1, -1, 2, 0.5, 1e-3, 1e3, 0.25}[rng.Intn(7)]
			if rng.Intn(3) == 0 {
				v *= rng.Float64() + 0.5
			}
			cols[j] = append(cols[j], entry{r, v})
		}
	}
	if nearSingular {
		for j := 0; j+3 < nStruct; j += 4 {
			var dep []entry
			switch rng.Intn(4) {
			case 0: // exact duplicate
				dep = append(dep, cols[j]...)
			case 1: // scaled copy
				for _, e := range cols[j] {
					dep = append(dep, entry{e.row, 3 * e.v})
				}
			case 2: // sum of two columns
				sum := make([]float64, m)
				for _, e := range cols[j] {
					sum[e.row] += e.v
				}
				for _, e := range cols[j+2] {
					sum[e.row] += e.v
				}
				for r, v := range sum {
					if v != 0 {
						dep = append(dep, entry{r, v})
					}
				}
			case 3: // numerically null
				for _, e := range cols[j+1] {
					dep = append(dep, entry{e.row, 1e-12 * e.v})
				}
			}
			cols[j+1] = dep
		}
	}
	mod := NewModel()
	mod.AddVars(nStruct)
	rowTerms := make([][]Term, m)
	for j, c := range cols {
		for _, e := range c {
			rowTerms[e.row] = append(rowTerms[e.row], Term{Var: VarID(j), Coef: e.v})
		}
	}
	for r := 0; r < m; r++ {
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		mod.AddRow(rowTerms[r], rel, float64(rng.Intn(5)-1), "")
	}
	s := NewSolver(mod)
	s.SetEngine(EngineEta)

	// About three quarters structurals, the rest of the rows covered by
	// their logical or artificial, in shuffled basis positions.
	var basis []int
	used := make([]bool, nStruct)
	for _, j := range rng.Perm(nStruct) {
		if len(basis) >= 3*m/4 {
			break
		}
		if used[j] {
			continue
		}
		basis, used[j] = append(basis, j), true
		if nearSingular && j%4 == 0 && !used[j+1] && len(basis) < 3*m/4 {
			basis, used[j+1] = append(basis, j+1), true
		}
	}
	for r := len(basis); r < m; r++ {
		if l := s.logOf[r]; l >= 0 && rng.Intn(2) == 0 {
			basis = append(basis, l)
		} else {
			basis = append(basis, s.artOf[r])
		}
	}
	rng.Shuffle(m, func(a, b int) { basis[a], basis[b] = basis[b], basis[a] })
	s.basis = basis
	s.pos = make([]int, len(s.cost))
	for j := range s.pos {
		s.pos[j] = -1
	}
	for r, col := range basis {
		s.pos[col] = r
	}
	return s
}

// TestPivotSearchMatchesReference checks the bucketed pivot search against
// the exhaustive scan at every elimination step of seeded random sparse
// bases, well-conditioned and near-singular.
func TestPivotSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	totalRepairs := 0
	for trial := 0; trial < 60; trial++ {
		m := 20 + rng.Intn(120)
		near := trial%2 == 1
		s := randomBasisSolver(rng, m, near)
		sel, rep, err := s.checkPivotOrder()
		if err != nil {
			t.Fatalf("trial %d (m=%d nearSingular=%v): %v", trial, m, near, err)
		}
		if sel < m {
			t.Fatalf("trial %d: %d selections for %d rows", trial, sel, m)
		}
		totalRepairs += rep
	}
	if totalRepairs == 0 {
		t.Fatal("no random basis went through luRepair; the near-singular cases test nothing")
	}
}
