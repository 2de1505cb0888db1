// Package lp implements a self-contained linear-programming toolkit:
// a model builder and a revised-simplex solver with both primal and dual
// pivoting rules.
//
// The package exists because the routing-design formulations of
// Towles, Dally and Boyd (SPAA'03) are linear programs, and the paper solved
// them with CPLEX. This is a from-scratch replacement tuned for the problem
// shapes that appear in oblivious routing design:
//
//   - many sparse structural columns (per-channel commodity flows or
//     per-path probabilities),
//   - moderate row counts (flow conservation plus generated cuts),
//   - repeated re-solves after adding cutting planes or changing one
//     right-hand side (Pareto sweeps), which the dual simplex warm-starts.
//
// The solver's default basis engine is a sparse LU factorization with
// Markowitz pivot ordering and a product-form eta file: simplex pivots
// append eta vectors, AddCut extends the representation with border ops,
// and the factors are rebuilt when the file grows past its thresholds.
// Pricing uses Devex reference weights over a partial candidate list. The
// original explicit dense-inverse engine remains available through
// Solver.SetEngine (or as the default under the lpdense build tag) and
// serves as the oracle for the cross-engine equivalence tests. All
// variables are nonnegative; rows may be <=, >= or ==. Maximization is
// expressed by negating the objective in the caller (the routing code only
// ever minimizes loads and path lengths).
package lp

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Rel is the relation of a linear constraint row.
type Rel int

const (
	// LE is "left-hand side <= rhs".
	LE Rel = iota
	// GE is "left-hand side >= rhs".
	GE
	// EQ is "left-hand side == rhs".
	EQ
)

// String returns the conventional symbol for the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// VarID identifies a variable within a Model. IDs are dense and start at 0.
type VarID int

// RowID identifies a constraint row within a Model. IDs are dense and start
// at 0.
type RowID int

// Term is one coefficient of a constraint row: Coef * x[Var].
type Term struct {
	Var  VarID
	Coef float64
}

// row is the internal representation of a constraint.
type row struct {
	name  string
	rel   Rel
	rhs   float64
	terms []Term
}

// Model is a linear program under construction:
//
//	minimize  sum_j obj[j] * x[j]
//	subject to each added row, and x >= 0.
//
// Models are not safe for concurrent mutation. A Model is consumed by
// NewSolver; further mutation after handing it to a solver is not observed
// by that solver.
type Model struct {
	names []string
	obj   []float64
	rows  []row
	// upper holds per-variable upper bounds (+Inf when absent). The slice
	// is grown on demand by SetUpper, so models without bounds pay nothing.
	upper []float64
	// arena is the bump allocator behind AddRow's merged term storage: rows
	// carve segments out of shared blocks instead of allocating two slices
	// each, which is the dominant build cost on the mesh-family models.
	arena []Term
	// err is the first construction error (bad variable reference,
	// non-finite coefficient). It sticks to the model and is surfaced by
	// Err and by Solver.Solve, so builders can chain AddRow calls without
	// per-call checks and still cannot silently solve a corrupted model.
	err error
}

// Err returns the first error recorded while building the model, or nil.
func (m *Model) Err() error { return m.err }

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{}
}

// AddVar adds a nonnegative variable with the given objective coefficient and
// returns its identifier. The name is used only for diagnostics and may be
// empty.
func (m *Model) AddVar(objCoef float64, name string) VarID {
	id := VarID(len(m.obj))
	m.obj = append(m.obj, objCoef)
	m.names = append(m.names, name)
	return id
}

// AddVars adds n nonnegative variables with zero objective coefficient and
// returns the identifier of the first; the rest follow consecutively.
func (m *Model) AddVars(n int) VarID {
	first := VarID(len(m.obj))
	for i := 0; i < n; i++ {
		m.obj = append(m.obj, 0)
		m.names = append(m.names, "")
	}
	return first
}

// SetObj overwrites the objective coefficient of v.
func (m *Model) SetObj(v VarID, coef float64) {
	m.obj[v] = coef
}

// SetUpper imposes the upper bound x[v] <= ub. The bound becomes variable
// state in the solver (at-lower/at-upper/basic), not a constraint row, so it
// adds nothing to the basis dimension. ub must be nonnegative and not NaN;
// +Inf removes a previously set bound.
func (m *Model) SetUpper(v VarID, ub float64) {
	if int(v) < 0 || int(v) >= len(m.obj) {
		if m.err == nil {
			m.err = fmt.Errorf("lp: SetUpper references unknown variable %d (model has %d)", v, len(m.obj))
		}
		return
	}
	if math.IsNaN(ub) || ub < 0 {
		if m.err == nil {
			m.err = fmt.Errorf("lp: SetUpper(%s, %v): bound must be nonnegative", m.VarName(v), ub)
		}
		return
	}
	for len(m.upper) <= int(v) {
		m.upper = append(m.upper, math.Inf(1))
	}
	m.upper[v] = ub
}

// Upper returns the upper bound of v, +Inf when none is set.
func (m *Model) Upper(v VarID) float64 {
	if int(v) < len(m.upper) {
		return m.upper[v]
	}
	return math.Inf(1)
}

// HasUpper reports whether any variable carries a finite upper bound.
func (m *Model) HasUpper() bool {
	for _, u := range m.upper {
		if !math.IsInf(u, 1) {
			return true
		}
	}
	return false
}

// Obj returns the objective coefficient of v.
func (m *Model) Obj(v VarID) float64 { return m.obj[v] }

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return len(m.obj) }

// NumRows reports the number of constraint rows added so far.
func (m *Model) NumRows() int { return len(m.rows) }

// AddRow adds a constraint row and returns its identifier. Terms referencing
// the same variable multiple times are summed. Terms referencing variables
// that do not exist, or carrying non-finite coefficients, record a sticky
// error (see Err) that Solver.Solve reports; the malformed terms are
// dropped so construction can continue deterministically.
func (m *Model) AddRow(terms []Term, rel Rel, rhs float64, name string) RowID {
	merged, err := m.mergeArena(terms)
	if err != nil && m.err == nil {
		if name == "" {
			name = fmt.Sprintf("row %d", len(m.rows))
		}
		m.err = fmt.Errorf("lp: %s: %w", name, err)
	}
	id := RowID(len(m.rows))
	m.rows = append(m.rows, row{name: name, rel: rel, rhs: rhs, terms: merged})
	return id
}

// SetRHS overwrites the right-hand side of an existing row.
func (m *Model) SetRHS(r RowID, rhs float64) {
	m.rows[r].rhs = rhs
}

// RHS returns the right-hand side of a row.
func (m *Model) RHS(r RowID) float64 { return m.rows[r].rhs }

// VarName returns the diagnostic name of a variable ("x<i>" if unnamed).
func (m *Model) VarName(v VarID) string {
	if n := m.names[v]; n != "" {
		return n
	}
	return fmt.Sprintf("x%d", int(v))
}

// mergeArena is mergeTerms carving its result from the model's term arena:
// the input is copied into a bump-allocated segment, sorted and compacted in
// place, and the arena advances by the merged length only. The algorithm —
// copy, sort.Slice with the identical comparator, in-place merge — is
// exactly mergeTerms', so duplicate summation order and the resulting bits
// are the same either way.
func (m *Model) mergeArena(terms []Term) ([]Term, error) {
	n := len(terms)
	if len(m.arena)+n > cap(m.arena) {
		c := 4096
		if c < n {
			c = n
		}
		m.arena = make([]Term, 0, c)
	}
	seg := m.arena[len(m.arena) : len(m.arena)+n]
	copy(seg, terms)
	sort.Slice(seg, func(i, j int) bool { return seg[i].Var < seg[j].Var })
	out, err := mergeSorted(seg, len(m.obj))
	m.arena = m.arena[:len(m.arena)+len(out)]
	return out, err
}

// mergeTerms sums duplicate variables, drops exact zeros, validates indices,
// and returns terms sorted by variable for deterministic iteration. Invalid
// terms (unknown variable, non-finite coefficient) are dropped and reported
// through the returned error so callers can record it without panicking.
func mergeTerms(terms []Term, numVars int) ([]Term, error) {
	merged := make([]Term, len(terms))
	copy(merged, terms)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Var < merged[j].Var })
	return mergeSorted(merged, numVars)
}

// mergeSorted compacts a Var-sorted term slice in place: duplicates are
// summed, exact zeros and invalid terms dropped. The returned slice aliases
// the input's prefix.
func mergeSorted(merged []Term, numVars int) ([]Term, error) {
	var err error
	out := merged[:0]
	for _, t := range merged {
		if int(t.Var) < 0 || int(t.Var) >= numVars {
			if err == nil {
				err = fmt.Errorf("term references unknown variable %d (model has %d)", t.Var, numVars)
			}
			continue
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			if err == nil {
				err = fmt.Errorf("non-finite coefficient %v for variable %d", t.Coef, t.Var)
			}
			continue
		}
		//lint:ignore floatcmp exact zero drops structurally absent terms
		if t.Coef == 0 {
			continue
		}
		if len(out) > 0 && out[len(out)-1].Var == t.Var {
			out[len(out)-1].Coef += t.Coef
			//lint:ignore floatcmp exact cancellation empties the merged term
			if out[len(out)-1].Coef == 0 {
				out = out[:len(out)-1]
			}
			continue
		}
		out = append(out, t)
	}
	return out, err
}

// String renders the model in a small human-readable format, useful in test
// failures. Large models are truncated.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "min")
	for j, c := range m.obj {
		//lint:ignore floatcmp exact zero selects structurally present coefficients
		if c != 0 {
			fmt.Fprintf(&b, " %+g*%s", c, m.VarName(VarID(j)))
		}
	}
	b.WriteString("\n")
	const maxRows = 50
	for i, r := range m.rows {
		if i == maxRows {
			fmt.Fprintf(&b, "... (%d more rows)\n", len(m.rows)-maxRows)
			break
		}
		for _, t := range r.terms {
			fmt.Fprintf(&b, " %+g*%s", t.Coef, m.VarName(t.Var))
		}
		fmt.Fprintf(&b, " %s %g\n", r.rel, r.rhs)
	}
	return b.String()
}

// Eval computes the value of the objective at x, which must have NumVars
// entries.
func (m *Model) Eval(x []float64) (float64, error) {
	if len(x) != len(m.obj) {
		return 0, fmt.Errorf("lp: Eval with %d values for %d variables", len(x), len(m.obj))
	}
	var v float64
	for j, c := range m.obj {
		v += c * x[j]
	}
	return v, nil
}

// RowActivity computes the left-hand-side value of row r at x.
func (m *Model) RowActivity(r RowID, x []float64) float64 {
	var v float64
	for _, t := range m.rows[r].terms {
		v += t.Coef * x[t.Var]
	}
	return v
}

// MaxViolation returns the largest absolute constraint violation of x over
// all rows and the nonnegativity bounds. It is a verification helper for
// tests and callers that want to sanity-check solutions.
func (m *Model) MaxViolation(x []float64) float64 {
	var worst float64
	for j := range m.obj {
		if x[j] < 0 && -x[j] > worst {
			worst = -x[j]
		}
	}
	for j := range m.upper {
		if v := x[j] - m.upper[j]; v > worst {
			worst = v
		}
	}
	for i := range m.rows {
		a := m.RowActivity(RowID(i), x)
		r := &m.rows[i]
		var v float64
		switch r.rel {
		case LE:
			v = a - r.rhs
		case GE:
			v = r.rhs - a
		case EQ:
			v = math.Abs(a - r.rhs)
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}
