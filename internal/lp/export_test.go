package lp

// Test-only hooks. The engine benchmarks and cross-engine equivalence tests
// live in the external package lp_test (they import internal/design to build
// the real design LPs, which would cycle from inside package lp), so the
// unexported pieces they exercise are re-exported here for test builds.

// Refresh refactorizes the current basis and recomputes the basic values.
func (s *Solver) Refresh() error { return s.refresh() }

// FtranCol runs one FTRAN of column col through the active representation.
func (s *Solver) FtranCol(col int) []float64 { return s.ftran(col) }

// NumCols reports the total column count (structurals + logicals +
// artificials) of the computational form.
func (s *Solver) NumCols() int { return len(s.cost) }

// CheckPivotOrder refactorizes the current basis, checking every pivot
// selection against the exhaustive reference scan (lu_ref_test.go), and
// reports the selections compared and the repairs made.
func (s *Solver) CheckPivotOrder() (selections, repairs int, err error) {
	return s.checkPivotOrder()
}
