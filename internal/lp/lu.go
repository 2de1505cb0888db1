package lp

import (
	"fmt"
	"math"
	"math/bits"
)

// Sparse LU factorization of the basis with Markowitz-style pivot ordering.
//
// The factorization processes one pivot per step, chosen to minimize the
// Markowitz merit (rowCount-1)*(colCount-1) among entries that pass a
// relative magnitude threshold — the classic fill-vs-stability compromise.
// The factors are stored as two eta sequences:
//
//   - L: per pivot step, the multipliers eliminating the pivot column below
//     the pivot (applied forward during FTRAN);
//   - U: per pivot step, the pivot value plus the pivot row's entries in
//     columns pivoted later (solved backward during FTRAN).
//
// Rows are constraint-row indices; columns are basis positions. The pivot
// sequence (prow[t], pcol[t]) is an implicit pair of permutations, so no
// separate permutation vectors are needed: FTRAN/BTRAN walk the pivot
// sequence directly.
//
// Basis matrices here are overwhelmingly triangularizable (logical columns
// are singletons; flow columns have a handful of entries), and the Markowitz
// rule discovers that automatically: singleton columns and rows have merit
// zero and are consumed first, so the "bump" needing real elimination — and
// hence fill — stays tiny.
//
// The pivot search never rescans the active matrix. The workspace keeps,
// incrementally across elimination steps, a bitset of singleton columns and
// one of singleton rows (lowest index first via bits.TrailingZeros64),
// doubly linked buckets of columns keyed by live length, a cached per-column
// max |value|, and a histogram of live row counts giving the smallest row
// count rmin. The bump search walks the buckets by increasing length and
// stops once (n-1)(rmin-1) exceeds the best merit found, since no longer
// column can match it (the count-bucketed search of Suhl & Suhl, 1990). The
// rule it implements is exact and order-independent: minimum merit, then
// larger |a|, then lower column, then lower index within the column — with
// merit zero ranking the lower column ahead of |a| — which is the pivot the
// plain column-by-column scan picks (lu_ref_test.go keeps that scan as the
// reference and checks every step against it).

const (
	// markowitzStab is the relative pivot-magnitude threshold: an entry is
	// an acceptable pivot only if it is at least this fraction of its
	// column's largest magnitude. Higher is safer, lower is sparser.
	markowitzStab = 0.01
)

// luFactor holds the factors of the last factorization.
type luFactor struct {
	m    int
	prow []int32   // pivot row per step
	pcol []int32   // pivot basis position per step
	pval []float64 // pivot value per step
	lRow []int32   // L multiplier rows, segmented by lPtr
	lVal []float64
	lPtr []int32
	uPos []int32 // U row entries: basis positions pivoted later
	uVal []float64
	uPtr []int32
}

// nnz reports the factor fill (L + U off-pivot entries plus pivots).
func (f *luFactor) nnz() int {
	return len(f.lVal) + len(f.uVal) + len(f.pval)
}

// reserve pre-sizes the factor arrays for an m-row basis holding nnz
// entries, so a fresh solver's first factorization appends without
// incremental reallocation; fill can still grow L/U past the hint.
func (f *luFactor) reserve(m, nnz int) {
	// Headroom on both reservations: cutting-plane loops grow the basis a
	// row at a time, and without slack every refactorization after a cut
	// would reallocate the whole factor storage.
	if cap(f.prow) < m {
		c := m + m/2
		f.prow = make([]int32, 0, c)
		f.pcol = make([]int32, 0, c)
		f.pval = make([]float64, 0, c)
		f.lPtr = make([]int32, 0, c+1)
		f.uPtr = make([]int32, 0, c+1)
	}
	if cap(f.lRow) < nnz {
		c := nnz + nnz/2
		f.lRow = make([]int32, 0, c)
		f.lVal = make([]float64, 0, c)
		f.uPos = make([]int32, 0, c)
		f.uVal = make([]float64, 0, c)
	}
}

func (f *luFactor) reset(m int) {
	f.m = m
	f.prow = f.prow[:0]
	f.pcol = f.pcol[:0]
	f.pval = f.pval[:0]
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.lPtr = append(f.lPtr[:0], 0)
	f.uPos = f.uPos[:0]
	f.uVal = f.uVal[:0]
	f.uPtr = append(f.uPtr[:0], 0)
}

// luWork is the factorization workspace, solver-owned so refactorizations
// allocate nothing in steady state.
type luWork struct {
	colRows [][]int32   // per position: entries in uneliminated rows
	colVals [][]float64 // values parallel to colRows
	rowCols [][]int32   // per row: positions that may hold an entry (lazily pruned)
	rowCnt  []int32     // per row: live entry count among uneliminated columns
	rowPiv  []bool
	colPiv  []bool
	wVal    []float64 // dense scatter values, indexed by row
	wMark   []int32   // scatter stamps, indexed by row
	posMark []int32   // dedup stamps, indexed by position
	stamp   int32
	qPos    []int32 // pivot-row position list (phase A of each step)
	qVal    []float64
	lRows   []int32 // pivot-column multipliers of the current step
	lMuls   []float64
	// Pivot-search structures, kept in step with colRows/colVals/rowCnt by
	// addRowCnt, colChanged and the retire helpers (see the file comment).
	colMax  []float64 // per position: max |value| of the live column
	colNext []int32   // per position: next position in its length bucket
	colPrev []int32   // per position: previous position, -1 at the head
	colBkt  []int32   // per position: length bucket it is linked in, -1 if none
	colHead []int32   // per live length: first position of the bucket, -1 if empty
	maxLen  int       // no bucket above this length is nonempty
	singCol []uint64  // bitset of unpivoted positions with live length 1
	singRow []uint64  // bitset of unpivoted rows with live count 1
	rowHist []int32   // per live count: number of unpivoted rows with it
	// Arenas backing the per-position and per-row slices: carved with tight
	// capacities at every factorization so the whole load performs O(1)
	// allocations. Columns and row lists that gain fill regrow out of the
	// overflow arena below, sized by high-water mark, so steady-state
	// refactorizations of a fill-heavy basis allocate nothing either.
	arR    []int32
	arV    []float64
	arRow  []int32
	ovR    []int32
	ovV    []float64
	ovOff  int // bump pointer into ovR/ovV for the current factorization
	ovRun  int // overflow demand of the current factorization
	ovWant int // high-water overflow demand across factorizations
}

// ovCarve reserves n entries of overflow arena, or reports failure when the
// arena is exhausted this round; either way the demand is recorded so the
// next factorization's arena covers it.
func (w *luWork) ovCarve(n int) (int, bool) {
	w.ovRun += n
	if w.ovRun > w.ovWant {
		w.ovWant = w.ovRun
	}
	if len(w.ovR)-w.ovOff < n {
		return 0, false
	}
	off := w.ovOff
	w.ovOff += n
	return off, true
}

// growCol returns the column's storage regrown with doubled capacity,
// carved from the overflow arena when it still has room.
func (w *luWork) growCol(r []int32, v []float64) ([]int32, []float64) {
	need := 2*cap(r) + 4
	if off, ok := w.ovCarve(need); ok {
		nr := append(w.ovR[off:off:off+need], r...)
		nv := append(w.ovV[off:off:off+need], v...)
		return nr, nv
	}
	nr := make([]int32, len(r), need)
	copy(nr, r)
	nv := make([]float64, len(v), need)
	copy(nv, v)
	return nr, nv
}

// growRowList returns the row's position list regrown with doubled capacity,
// carved from the overflow arena when it still has room.
func (w *luWork) growRowList(l []int32) []int32 {
	need := 2*cap(l) + 4
	if off, ok := w.ovCarve(need); ok {
		return append(w.ovR[off:off:off+need], l...)
	}
	nl := make([]int32, len(l), need)
	copy(nl, l)
	return nl
}

func (w *luWork) init(m int) {
	// Headroom on every per-row reservation: cut loops refactorize with m
	// one larger each episode, and exact sizing would reallocate the whole
	// workspace every time.
	if cap(w.colRows) < m {
		n := m + m/2 - cap(w.colRows)
		w.colRows = append(w.colRows[:cap(w.colRows)], make([][]int32, n)...)
		w.colVals = append(w.colVals[:cap(w.colVals)], make([][]float64, n)...)
		w.rowCols = append(w.rowCols[:cap(w.rowCols)], make([][]int32, n)...)
	}
	w.colRows = w.colRows[:m]
	w.colVals = w.colVals[:m]
	w.rowCols = w.rowCols[:m]
	if cap(w.colHead) < m+1 { // the per-length arrays need m+1 even at m = 0
		c := m + m/2
		w.rowCnt = make([]int32, c)
		w.rowPiv = make([]bool, c)
		w.colPiv = make([]bool, c)
		w.wVal = make([]float64, c)
		w.wMark = make([]int32, c)
		w.posMark = make([]int32, c)
		w.colMax = make([]float64, c)
		w.colNext = make([]int32, c)
		w.colPrev = make([]int32, c)
		w.colBkt = make([]int32, c)
		w.colHead = make([]int32, c+1)
		w.rowHist = make([]int32, c+1)
		w.singCol = make([]uint64, (c+63)/64)
		w.singRow = make([]uint64, (c+63)/64)
	}
	w.rowCnt = w.rowCnt[:m]
	w.rowPiv = w.rowPiv[:m]
	w.colPiv = w.colPiv[:m]
	w.wVal = w.wVal[:m]
	w.wMark = w.wMark[:m]
	w.posMark = w.posMark[:m]
	w.colMax = w.colMax[:m]
	w.colNext = w.colNext[:m]
	w.colPrev = w.colPrev[:m]
	w.colBkt = w.colBkt[:m]
	w.colHead = w.colHead[:m+1]
	w.rowHist = w.rowHist[:m+1]
	w.singCol = w.singCol[:(m+63)/64]
	w.singRow = w.singRow[:(m+63)/64]
	for i := 0; i < m; i++ {
		w.rowCnt[i] = 0
		w.rowPiv[i] = false
		w.colPiv[i] = false
		w.wMark[i] = 0
		w.posMark[i] = 0
		w.rowCols[i] = w.rowCols[i][:0]
		w.colBkt[i] = -1
	}
	for n := range w.colHead {
		w.colHead[n] = -1
		w.rowHist[n] = 0
	}
	w.rowHist[0] = int32(m) // every row starts empty
	clear(w.singCol)
	clear(w.singRow)
	w.maxLen = 0
	w.stamp = 0
}

// addRowCnt adds d (±1) to unpivoted row r's live count. Every count change
// goes through here so the singleton-row bitset and the count histogram
// never drift from rowCnt.
func (w *luWork) addRowCnt(r int32, d int32) {
	old := w.rowCnt[r]
	n := old + d
	w.rowCnt[r] = n
	w.rowHist[old]--
	w.rowHist[n]++
	if n == 1 || old == 1 {
		w.singRow[r>>6] ^= 1 << (r & 63)
	}
}

// retireRow marks row r pivoted, removing it from the search structures.
// Its count is frozen from here on: nothing reads a pivoted row's count.
func (w *luWork) retireRow(r int) {
	w.rowPiv[r] = true
	w.rowHist[w.rowCnt[r]]--
	w.singRow[r>>6] &^= 1 << (r & 63)
}

// colChanged refreshes the search structures of unpivoted position c after
// its live entries were (re)written: the cached max |value|, the length
// bucket and the singleton-column bit.
func (w *luWork) colChanged(c int) {
	colMax := 0.0
	for _, v := range w.colVals[c] {
		if a := math.Abs(v); a > colMax {
			colMax = a
		}
	}
	w.colMax[c] = colMax
	n := int32(len(w.colRows[c]))
	if n == 1 {
		w.singCol[c>>6] |= 1 << (c & 63)
	} else {
		w.singCol[c>>6] &^= 1 << (c & 63)
	}
	if w.colBkt[c] == n {
		return
	}
	w.unlinkCol(c)
	w.colBkt[c] = n
	w.colPrev[c] = -1
	w.colNext[c] = w.colHead[n]
	if h := w.colHead[n]; h >= 0 {
		w.colPrev[h] = int32(c)
	}
	w.colHead[n] = int32(c)
	if int(n) > w.maxLen {
		w.maxLen = int(n)
	}
}

// unlinkCol removes position c from its length bucket, if it is in one.
func (w *luWork) unlinkCol(c int) {
	n := w.colBkt[c]
	if n < 0 {
		return
	}
	p, q := w.colPrev[c], w.colNext[c]
	if p >= 0 {
		w.colNext[p] = q
	} else {
		w.colHead[n] = q
	}
	if q >= 0 {
		w.colPrev[q] = p
	}
	w.colBkt[c] = -1
}

// retireCol marks position c pivoted, removing it from the search
// structures.
func (w *luWork) retireCol(c int) {
	w.colPiv[c] = true
	w.unlinkCol(c)
	w.singCol[c>>6] &^= 1 << (c & 63)
}

// minRowCnt returns the smallest nonzero live count among unpivoted rows,
// or 0 when every unpivoted row is empty.
func (w *luWork) minRowCnt() int32 {
	for n := 1; n < len(w.rowHist); n++ {
		if w.rowHist[n] > 0 {
			return int32(n)
		}
	}
	return 0
}

// factorizeSparse builds the sparse LU factors of the current basis and
// clears the update-eta file. Dependent basis columns are repaired in-pass
// by substituting the artificial column of a still-unpivoted row, mirroring
// the dense engine's repair. On success the factors are marked current.
func (s *Solver) factorizeSparse() error {
	s.luLoad()
	for step := 0; step < s.nRows; step++ {
		pr, pc, pIdx := s.luSelectPivot()
		for pc < 0 {
			if err := s.luRepair(); err != nil {
				return err
			}
			pr, pc, pIdx = s.luSelectPivot()
		}
		s.luEliminate(pr, pc, pIdx)
	}
	s.factorOK = true
	return nil
}

// luLoad resets the factors and the eta file and loads the basis columns
// into the active matrix and its pivot-search structures, ready for the
// first elimination step.
func (s *Solver) luLoad() {
	m := s.nRows
	w := &s.luw
	w.init(m)
	tot := 0
	for _, col := range s.basis {
		tot += len(s.colR[col])
	}
	s.lu.reserve(m, tot)
	s.lu.reset(m)
	s.etas.reset()
	s.luRepairs = 0

	// Carve the per-position and per-row slices out of the shared arenas.
	if cap(w.arR) < tot {
		// Same headroom rationale as luFactor.reserve: cut loops grow the
		// basis incrementally between refactorizations.
		c := tot + tot/2
		w.arR = make([]int32, c)
		w.arV = make([]float64, c)
		w.arRow = make([]int32, c)
	}
	w.arR = w.arR[:cap(w.arR)]
	w.arV = w.arV[:cap(w.arV)]
	w.arRow = w.arRow[:cap(w.arRow)]
	if cap(w.ovR) < w.ovWant {
		w.ovR = make([]int32, w.ovWant)
		w.ovV = make([]float64, w.ovWant)
	}
	w.ovOff, w.ovRun = 0, 0
	off := 0
	for pos, col := range s.basis {
		rows, vals := s.colR[col], s.colV[col]
		n := len(rows)
		cr := w.arR[off : off+n : off+n]
		cv := w.arV[off : off+n : off+n]
		copy(cr, rows)
		copy(cv, vals)
		w.colRows[pos], w.colVals[pos] = cr, cv
		off += n
		for _, r := range rows {
			w.addRowCnt(r, 1)
		}
		w.colChanged(pos)
	}
	off = 0
	for r := 0; r < m; r++ {
		n := int(w.rowCnt[r])
		w.rowCols[r] = w.arRow[off : off : off+n]
		off += n
	}
	for pos, rows := range w.colRows {
		for _, r := range rows {
			w.rowCols[r] = append(w.rowCols[r], int32(pos))
		}
	}
}

// luSelectPivot returns the entry of the uneliminated submatrix with minimal
// Markowitz merit among entries passing the relative magnitude threshold,
// ranked as the file comment states. Merit-zero pivots (singleton columns,
// then singleton rows, lowest index first) come straight from the bitsets;
// otherwise the bump search walks the length buckets. It returns
// (-1, -1, -1) when every remaining column is numerically null.
func (s *Solver) luSelectPivot() (pr, pc, pIdx int) {
	w := &s.luw
	for wi, word := range w.singCol {
		for ; word != 0; word &= word - 1 {
			c := wi<<6 + bits.TrailingZeros64(word)
			if math.Abs(w.colVals[c][0]) > pivotTol {
				return int(w.colRows[c][0]), c, 0
			}
		}
	}
	for wi, word := range w.singRow {
		for ; word != 0; word &= word - 1 {
			r := wi<<6 + bits.TrailingZeros64(word)
			if pr, pc, pIdx = s.luSingletonRowPivot(r); pc >= 0 {
				return pr, pc, pIdx
			}
		}
	}
	rmin := int64(w.minRowCnt())
	bestMerit := int64(math.MaxInt64)
	bestMag := 0.0
	pr, pc, pIdx = -1, -1, -1
	// Length 0 and 1 buckets hold only numerically null columns by now: an
	// acceptable singleton column was taken above.
	for n := 2; n <= w.maxLen; n++ {
		cc := int64(n - 1)
		if cc*(rmin-1) > bestMerit {
			break // every entry of a column this long has a larger merit
		}
		for c := int(w.colHead[n]); c >= 0; c = int(w.colNext[c]) {
			colMax := w.colMax[c]
			if colMax <= pivotTol {
				continue // numerically null column; repair if everything is
			}
			thr := colMax * markowitzStab
			vals := w.colVals[c]
			for i, r := range w.colRows[c] {
				a := math.Abs(vals[i])
				if a < thr || a <= pivotTol {
					continue
				}
				merit := cc * int64(w.rowCnt[r]-1)
				if merit > bestMerit {
					continue
				}
				if merit == bestMerit {
					// Ties: merit zero ranks the lower column first (the
					// scan stopped at the first column holding one; with
					// exact counts the singleton-row pass has taken every
					// such pivot already), any other merit the larger
					// magnitude; then column, then index.
					var better bool
					switch {
					case merit == 0 && c != pc:
						better = c < pc
					case a > bestMag:
						better = true
					case a < bestMag:
					case c != pc:
						better = c < pc
					default:
						better = i < pIdx
					}
					if !better {
						continue
					}
				}
				bestMerit, bestMag = merit, a
				pr, pc, pIdx = int(r), c, i
			}
		}
	}
	return pr, pc, pIdx
}

// luSingletonRowPivot locates the single live entry of row r (rowCols may
// hold stale references, so each candidate column is verified) and returns
// it as a pivot when it passes the relative stability threshold of its
// column. A singleton row pivot generates no fill: the pivot row has no
// other entries, so no column update is needed beyond the L multipliers.
func (s *Solver) luSingletonRowPivot(r int) (int, int, int) {
	w := &s.luw
	for _, q := range w.rowCols[r] {
		if w.colPiv[q] {
			continue
		}
		idx := -1
		for i, ri := range w.colRows[q] {
			if int(ri) == r {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue // stale reference
		}
		if a := math.Abs(w.colVals[q][idx]); a > pivotTol && a >= w.colMax[q]*markowitzStab {
			return r, int(q), idx
		}
		return -1, -1, -1 // entry exists but is unstable; leave to the full scan
	}
	return -1, -1, -1
}

// luRepair substitutes a nonbasic artificial column for a numerically null
// basis column, keeping the factorization going on a dependent basis. The
// substituted artificial is a row singleton (±1) in a still-unpivoted row,
// so it always yields an acceptable pivot.
func (s *Solver) luRepair() error {
	w := &s.luw
	m := s.nRows
	s.luRepairs++
	if s.luRepairs > m+1 {
		return fmt.Errorf("%w: basis repair did not converge", ErrNumerical)
	}
	// The position to repair: an unpivoted column, preferring the one with
	// the smallest residual magnitude (the most dependent).
	bad, badMax := -1, math.Inf(1)
	for c := 0; c < m; c++ {
		if !w.colPiv[c] && w.colMax[c] < badMax {
			bad, badMax = c, w.colMax[c]
		}
	}
	if bad < 0 {
		return fmt.Errorf("%w: singular basis: no repairable column", ErrNumerical)
	}
	// The replacement: the artificial of an unpivoted row that is not
	// already basic elsewhere; prefer sparse rows to minimize U fill.
	pick := -1
	var pickCnt int32
	for r := 0; r < m; r++ {
		if w.rowPiv[r] {
			continue
		}
		art := s.artOf[r]
		if p := s.pos[art]; p >= 0 && p != bad {
			continue
		}
		if pick < 0 || w.rowCnt[r] < pickCnt {
			pick, pickCnt = r, w.rowCnt[r]
		}
	}
	if pick < 0 {
		return fmt.Errorf("%w: singular basis: column %d dependent, no repair available", ErrNumerical, s.basis[bad])
	}
	// Swap the dependent column out of the basis and the active matrix.
	old := s.basis[bad]
	art := s.artOf[pick]
	s.pos[old] = -1
	s.basis[bad] = art
	s.pos[art] = bad
	for _, r := range w.colRows[bad] {
		w.addRowCnt(r, -1)
	}
	sign := s.colV[art][0]
	w.colRows[bad] = append(w.colRows[bad][:0], int32(pick))
	w.colVals[bad] = append(w.colVals[bad][:0], sign)
	w.colChanged(bad)
	w.addRowCnt(int32(pick), 1)
	if len(w.rowCols[pick]) == cap(w.rowCols[pick]) {
		w.rowCols[pick] = w.growRowList(w.rowCols[pick])
	}
	w.rowCols[pick] = append(w.rowCols[pick], int32(bad))
	return nil
}

// luEliminate performs one pivot step: records the L multipliers and U row,
// and updates every uneliminated column with an entry in the pivot row.
func (s *Solver) luEliminate(pr, pc, pIdx int) {
	w := &s.luw
	lu := &s.lu
	piv := w.colVals[pc][pIdx]

	// L multipliers from the pivot column; the column leaves the active set.
	w.lRows = w.lRows[:0]
	w.lMuls = w.lMuls[:0]
	for i, r := range w.colRows[pc] {
		w.addRowCnt(r, -1)
		if int(r) == pr {
			continue
		}
		w.lRows = append(w.lRows, r)
		//lint:ignore nanguard luSelectPivot/luRepair guarantee |piv| > pivotTol
		w.lMuls = append(w.lMuls, w.colVals[pc][i]/piv)
	}
	lu.prow = append(lu.prow, int32(pr))
	lu.pcol = append(lu.pcol, int32(pc))
	lu.pval = append(lu.pval, piv)
	lu.lRow = append(lu.lRow, w.lRows...)
	lu.lVal = append(lu.lVal, w.lMuls...)
	lu.lPtr = append(lu.lPtr, int32(len(lu.lRow)))
	w.retireCol(pc)
	w.retireRow(pr)
	w.colRows[pc] = w.colRows[pc][:0]
	w.colVals[pc] = w.colVals[pc][:0]

	// Phase A: the live pivot-row entries among uneliminated columns.
	// rowCols may hold stale or duplicate positions; dedupe with a stamp
	// and verify against the column itself.
	w.stamp++
	sA := w.stamp
	w.qPos = w.qPos[:0]
	w.qVal = w.qVal[:0]
	for _, q := range w.rowCols[pr] {
		if w.colPiv[q] || w.posMark[q] == sA {
			continue
		}
		w.posMark[q] = sA
		for i, r := range w.colRows[q] {
			if int(r) == pr {
				w.qPos = append(w.qPos, q)
				w.qVal = append(w.qVal, w.colVals[q][i])
				break
			}
		}
	}
	w.rowCols[pr] = w.rowCols[pr][:0]

	// Phase B: update each such column and record its U entry.
	for qi, q := range w.qPos {
		f := w.qVal[qi]
		lu.uPos = append(lu.uPos, q)
		lu.uVal = append(lu.uVal, f)
		s.luUpdateColumn(int(q), pr, f)
	}
	lu.uPtr = append(lu.uPtr, int32(len(lu.uPos)))
}

// luUpdateColumn applies col[q] -= (f/piv) * pivotColumn restricted to
// uneliminated rows, removing the pivot-row entry and tracking fill.
func (s *Solver) luUpdateColumn(q, pr int, f float64) {
	w := &s.luw
	w.stamp++
	st := w.stamp
	rows, vals := w.colRows[q], w.colVals[q]
	// Scatter the column (minus the pivot-row entry) into the workspace.
	for i, r := range rows {
		if int(r) == pr {
			continue
		}
		w.wVal[r] = vals[i]
		w.wMark[r] = st
	}
	// Apply the elimination.
	for t, r := range w.lRows {
		if w.wMark[r] == st {
			w.wVal[r] -= w.lMuls[t] * f
		} else {
			w.wVal[r] = -w.lMuls[t] * f
			w.wMark[r] = st
		}
	}
	// Gather back: previously present rows first (consuming their marks),
	// then surviving L rows are fill.
	outR := rows[:0]
	outV := vals[:0]
	for _, r := range rows {
		if int(r) == pr || w.wMark[r] != st {
			continue
		}
		v := w.wVal[r]
		w.wMark[r] = 0
		//lint:ignore floatcmp exact cancellation removes the entry structurally
		if v == 0 {
			w.addRowCnt(r, -1)
			continue
		}
		outR = append(outR, r)
		outV = append(outV, v)
	}
	for _, r := range w.lRows {
		if w.wMark[r] != st {
			continue // consumed above: was already present
		}
		v := w.wVal[r]
		w.wMark[r] = 0
		//lint:ignore floatcmp exact zero fill never materializes
		if v == 0 {
			continue
		}
		if len(outR) == cap(outR) {
			outR, outV = w.growCol(outR, outV)
		}
		outR = append(outR, r)
		outV = append(outV, v)
		w.addRowCnt(r, 1)
		if len(w.rowCols[r]) == cap(w.rowCols[r]) {
			w.rowCols[r] = w.growRowList(w.rowCols[r])
		}
		w.rowCols[r] = append(w.rowCols[r], int32(q))
	}
	w.colRows[q] = outR
	w.colVals[q] = outV
	w.colChanged(q)
}

// ftranVec solves B u = b for a dense row-space right-hand side b (which is
// destroyed) into the position-space vector out, applying the LU factors and
// then the update ops. Rows beyond lu.m were added by AddCut after the last
// factorization; their components bypass the factors and are consumed by the
// corresponding border ops.
func (s *Solver) ftranVec(b, out []float64) {
	lu := &s.lu
	m := lu.m
	for t := 0; t < m; t++ {
		br := b[lu.prow[t]]
		//lint:ignore floatcmp exact zero skips a structurally empty L step
		if br == 0 {
			continue
		}
		rows := lu.lRow[lu.lPtr[t]:lu.lPtr[t+1]]
		vals := lu.lVal[lu.lPtr[t]:lu.lPtr[t+1]]
		for k, r := range rows {
			b[r] -= vals[k] * br
		}
	}
	for t := m - 1; t >= 0; t-- {
		v := b[lu.prow[t]]
		poss := lu.uPos[lu.uPtr[t]:lu.uPtr[t+1]]
		vals := lu.uVal[lu.uPtr[t]:lu.uPtr[t+1]]
		for k, p := range poss {
			v -= vals[k] * out[p]
		}
		//lint:ignore nanguard factorization accepts only |pval| > pivotTol pivots
		out[lu.pcol[t]] = v / lu.pval[t]
	}
	for r := m; r < len(out); r++ {
		out[r] = b[r]
	}
	s.etas.applyFtran(out)
}

// btranEta solves y^T = c^T Binv for a position-space vector c (held in w,
// which is destroyed): update etas transposed in reverse order, then U^T
// forward and L^T backward through the factors. The result, indexed by
// constraint row, lands in (and aliases) the solver's rho scratch.
func (s *Solver) btranEta(w []float64) []float64 {
	s.etas.applyBtran(w)
	lu := &s.lu
	m := lu.m
	z := s.growRho()
	// Border rows (added after the last factorization) bypass the factors:
	// their solution components were finalized by the reversed border ops.
	for r := m; r < len(z); r++ {
		z[r] = w[r]
	}
	for t := 0; t < m; t++ {
		//lint:ignore nanguard factorization accepts only |pval| > pivotTol pivots
		zt := w[lu.pcol[t]] / lu.pval[t]
		z[lu.prow[t]] = zt
		//lint:ignore floatcmp exact zero skips a structurally empty U^T step
		if zt == 0 {
			continue
		}
		poss := lu.uPos[lu.uPtr[t]:lu.uPtr[t+1]]
		vals := lu.uVal[lu.uPtr[t]:lu.uPtr[t+1]]
		for k, p := range poss {
			w[p] -= vals[k] * zt
		}
	}
	for t := m - 1; t >= 0; t-- {
		var acc float64
		rows := lu.lRow[lu.lPtr[t]:lu.lPtr[t+1]]
		vals := lu.lVal[lu.lPtr[t]:lu.lPtr[t+1]]
		for k, r := range rows {
			acc += vals[k] * z[r]
		}
		//lint:ignore floatcmp exact zero skips a no-op correction
		if acc != 0 {
			z[lu.prow[t]] -= acc
		}
	}
	return z
}

// ftranEta computes u = Binv * A[col] through the factors and eta file: the
// sparse column is scattered into a zeroed row-space vector and solved by
// ftranVec, which writes every entry of u.
func (s *Solver) ftranEta(col int) []float64 {
	b := s.growRowSp()
	clear(b)
	for t, ri := range s.colR[col] {
		b[ri] = s.colV[col][t]
	}
	u := s.growU()
	s.ftranVec(b, u)
	return u
}
