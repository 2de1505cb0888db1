package lp

import (
	"context"
	"errors"
	"math"
)

// Model-level presolve/postsolve. SolveModel reduces a finished Model —
// empty rows, singleton rows folded into variable upper bounds, fixed and
// dominated columns, power-of-two equilibration — solves the reduced LP, and
// reconstructs a full primal/dual solution on the original model.
//
// The reductions target the shapes the routing formulations produce: channel
// capacity rows are singletons on the load variable (they become bounds and
// leave the basis dimension entirely), saturated flow variables get fixed,
// and the ±1 design matrices make equilibration a no-op by construction.
//
// Presolve runs only here, on whole models. The incremental Solver API
// (AddCut / SetRHS warm-start loops) never presolves: the cut loop's
// checkpoint and fingerprint guarantees depend on the solver seeing exactly
// the rows the replay log describes.

// psActKind tags one postsolve stack entry.
type psActKind uint8

const (
	// psRowDropped is an eliminated row with a structurally zero dual
	// (empty after substitutions, or a redundant singleton).
	psRowDropped psActKind = iota
	// psRowFixEQ is an equality singleton row a*x_j == rhs whose variable
	// was fixed; its dual is reconstructed from the fixed column's
	// stationarity condition.
	psRowFixEQ
	// psRowBound is an inequality singleton row folded into an upper bound;
	// its dual is the bound's reduced cost divided by the row coefficient
	// when this row supplied the binding bound, zero otherwise.
	psRowBound
)

// psAction is one entry of the postsolve stack, pushed at removal time and
// replayed in reverse to rebuild the dual vector.
type psAction struct {
	kind psActKind
	row  int
	col  int
	coef float64
}

// psColEntry locates one coefficient of a column in the original row set.
type psColEntry struct {
	row  int32
	coef float64
}

// presolver holds the working state of one presolve run over a Model.
type presolver struct {
	m  *Model
	nv int
	nr int

	ub       []float64 // working upper bounds (+Inf when absent)
	rhs      []float64 // working right-hand sides, updated by substitutions
	rowDead  []bool
	colFixed []bool
	colVal   []float64
	boundRow []int // column -> row that supplied its binding upper bound
	colRows  [][]psColEntry

	stack      []psAction
	stats      PresolveStats
	offset     float64 // objective contribution of fixed columns
	infeasible bool
	unbounded  bool

	// Reduced-model handoff, filled by buildReduced.
	red      *Model
	liveRows []int32
	liveCols []int32
	rowScale []float64
	colScale []float64
}

// maxPresolvePasses bounds the reduction fixpoint: each pass is a full
// row+column sweep, and reductions that chain deeper than this are not worth
// chasing before the simplex.
const maxPresolvePasses = 10

// SolveModel presolves m, solves the reduced LP, and postsolves the result
// back onto m's variables and rows. See SolveModelCtx.
func SolveModel(m *Model) (*Solution, error) {
	return SolveModelCtx(context.Background(), m)
}

// SolveModelCtx is SolveModel with a context budget. The solve ladder is:
// the reduced model on the default engine (with the solver's own internal
// recovery ladder, which already includes the dense-engine fallback), and on
// a numerical failure the original, unpresolved model on the dense oracle
// engine — so presolve can never make a previously solvable model fail.
func SolveModelCtx(ctx context.Context, m *Model) (*Solution, error) {
	if err := m.Err(); err != nil {
		return nil, err
	}
	p := newPresolver(m)
	p.run()
	if p.infeasible {
		return &Solution{
			Status: Infeasible,
			X:      make([]float64, p.nv),
			Dual:   make([]float64, p.nr),
			Diag:   Diagnostics{Presolve: p.stats},
		}, nil
	}
	if p.unbounded {
		return &Solution{
			Status: Unbounded,
			Diag:   Diagnostics{Presolve: p.stats},
		}, nil
	}
	if len(p.liveRows) == 0 {
		// Everything reduced away: the fixed values are the solution.
		return p.directSolution(), nil
	}
	sol, err := NewSolver(p.red).SolveCtx(ctx)
	if err != nil {
		if !errors.Is(err, ErrNumerical) {
			return nil, err
		}
		s := NewSolver(m)
		s.SetEngine(EngineDense)
		sol, err = s.SolveCtx(ctx)
		if err != nil {
			return nil, err
		}
		sol.Diag.EngineFallback = true
		return sol, nil
	}
	return p.postsolve(sol), nil
}

func newPresolver(m *Model) *presolver {
	nv, nr := m.NumVars(), m.NumRows()
	p := &presolver{
		m:        m,
		nv:       nv,
		nr:       nr,
		ub:       make([]float64, nv),
		rhs:      make([]float64, nr),
		rowDead:  make([]bool, nr),
		colFixed: make([]bool, nv),
		colVal:   make([]float64, nv),
		boundRow: make([]int, nv),
		colRows:  make([][]psColEntry, nv),
	}
	for j := 0; j < nv; j++ {
		p.ub[j] = m.Upper(VarID(j))
		p.boundRow[j] = -1
	}
	cnt := make([]int32, nv)
	tot := 0
	for i := range m.rows {
		p.rhs[i] = m.rows[i].rhs
		for _, t := range m.rows[i].terms {
			cnt[t.Var]++
		}
		tot += len(m.rows[i].terms)
	}
	arena := make([]psColEntry, 0, tot)
	for j := 0; j < nv; j++ {
		n := int(cnt[j])
		p.colRows[j] = arena[len(arena) : len(arena) : len(arena)+n]
		arena = arena[:len(arena)+n]
	}
	for i := range m.rows {
		for _, t := range m.rows[i].terms {
			p.colRows[t.Var] = append(p.colRows[t.Var], psColEntry{row: int32(i), coef: t.Coef})
		}
	}
	return p
}

// fix pins column j at val: the objective picks up its contribution and
// every row's right-hand side absorbs its activity.
func (p *presolver) fix(j int, val float64) {
	p.colFixed[j] = true
	p.colVal[j] = val
	p.offset += p.m.obj[j] * val
	p.stats.ColsRemoved++
	//lint:ignore floatcmp a zero value contributes nothing exactly
	if val != 0 {
		for _, e := range p.colRows[j] {
			p.rhs[e.row] -= e.coef * val
		}
	}
}

func (p *presolver) dropRow(i int, kind psActKind, col int, coef float64) {
	p.rowDead[i] = true
	p.stats.RowsRemoved++
	p.stack = append(p.stack, psAction{kind: kind, row: i, col: col, coef: coef})
}

// run iterates the reduction sweeps to a fixpoint and builds the reduced
// model.
func (p *presolver) run() {
	for pass := 1; pass <= maxPresolvePasses; pass++ {
		p.stats.Passes = pass
		changed := p.sweepRows()
		if p.infeasible {
			return
		}
		if p.sweepCols() {
			changed = true
		}
		if !changed {
			break
		}
	}
	// With no live rows left, the remaining live columns face only their
	// bounds: a negative cost with no finite bound certifies unboundedness
	// (the fixed values above witness feasibility); everything else sits at
	// the cheaper end of its range.
	anyLiveRow := false
	for i := 0; i < p.nr; i++ {
		if !p.rowDead[i] {
			anyLiveRow = true
			break
		}
	}
	if !anyLiveRow {
		for j := 0; j < p.nv; j++ {
			if p.colFixed[j] {
				continue
			}
			c := p.m.obj[j]
			if c < 0 {
				if math.IsInf(p.ub[j], 1) {
					p.unbounded = true
					return
				}
				p.fix(j, p.ub[j])
				continue
			}
			p.fix(j, 0)
		}
	}
	p.buildReduced()
}

// sweepRows applies the empty-row and singleton-row reductions once.
func (p *presolver) sweepRows() bool {
	changed := false
	for i := range p.m.rows {
		if p.rowDead[i] {
			continue
		}
		r := &p.m.rows[i]
		liveN := 0
		var lone Term
		for _, t := range r.terms {
			if p.colFixed[t.Var] {
				continue
			}
			liveN++
			if liveN > 1 {
				break
			}
			lone = t
		}
		switch liveN {
		case 0:
			// Empty row: the substituted right-hand side decides.
			b := p.rhs[i]
			switch r.rel {
			case LE:
				if b < -primalTol {
					p.infeasible = true
					return changed
				}
			case GE:
				if b > primalTol {
					p.infeasible = true
					return changed
				}
			case EQ:
				if math.Abs(b) > primalTol {
					p.infeasible = true
					return changed
				}
			}
			p.dropRow(i, psRowDropped, -1, 0)
			changed = true
		case 1:
			if p.singletonRow(i, r.rel, lone) {
				changed = true
			}
			if p.infeasible {
				return changed
			}
		}
	}
	return changed
}

// singletonRow reduces a row holding a single live term a*x_j. Inequalities
// that bound x_j from above fold into its upper bound; equalities fix it;
// lower bounds weaker than x_j >= 0 are dropped as redundant. Rows that
// would impose a positive lower bound stay (the solver has no general lower
// bounds). Reports whether the row was eliminated.
func (p *presolver) singletonRow(i int, rel Rel, t Term) bool {
	j := int(t.Var)
	a := t.Coef
	v := p.rhs[i] / a
	// Orient as an upper or lower bound on x_j: dividing by a negative
	// coefficient flips the relation.
	upperBnd := (rel == LE && a > 0) || (rel == GE && a < 0)
	lowerBnd := (rel == GE && a > 0) || (rel == LE && a < 0)
	switch {
	case upperBnd:
		if v < -primalTol {
			p.infeasible = true
			return false
		}
		if v < 0 {
			v = 0
		}
		if v < p.ub[j] {
			p.ub[j] = v
			p.boundRow[j] = i
			p.stats.BoundsAdded++
		}
		p.dropRow(i, psRowBound, j, a)
		return true
	case lowerBnd:
		if v <= primalTol {
			// No stronger than the built-in x_j >= 0.
			p.dropRow(i, psRowDropped, -1, 0)
			return true
		}
		return false // genuine lower bound: leave for the simplex
	default: // EQ
		if v < -primalTol || v > p.ub[j]+primalTol {
			p.infeasible = true
			return false
		}
		if v < 0 {
			v = 0
		}
		if v > p.ub[j] {
			v = p.ub[j]
		}
		p.dropRow(i, psRowFixEQ, j, a)
		p.fix(j, v)
		return true
	}
}

// sweepCols applies the fixed-at-zero-bound, empty-column and weakly
// dominated column reductions once.
func (p *presolver) sweepCols() bool {
	cnt := make([]int32, p.nv)
	dom := make([]bool, p.nv)
	for j := range dom {
		dom[j] = true
	}
	for i := range p.m.rows {
		if p.rowDead[i] {
			continue
		}
		rel := p.m.rows[i].rel
		for _, t := range p.m.rows[i].terms {
			if p.colFixed[t.Var] {
				continue
			}
			cnt[t.Var]++
			// A column is weakly dominated when raising it can only tighten
			// constraints: nonnegative coefficients in <= rows, nonpositive
			// in >= rows, absent from == rows.
			switch {
			case rel == EQ:
				dom[t.Var] = false
			case rel == LE && t.Coef < 0:
				dom[t.Var] = false
			case rel == GE && t.Coef > 0:
				dom[t.Var] = false
			}
		}
	}
	changed := false
	for j := 0; j < p.nv; j++ {
		if p.colFixed[j] {
			continue
		}
		//lint:ignore floatcmp bounds are clamped nonnegative, so zero is exact
		if p.ub[j] == 0 {
			p.fix(j, 0)
			changed = true
			continue
		}
		c := p.m.obj[j]
		if cnt[j] == 0 {
			// Empty column: only the objective and the bound act on it. A
			// negative cost with no finite bound is kept — if the rest of
			// the model proves feasible it certifies unboundedness, and the
			// simplex must be the one to decide that.
			if c >= 0 {
				p.fix(j, 0)
				changed = true
			} else if !math.IsInf(p.ub[j], 1) {
				p.fix(j, p.ub[j])
				changed = true
			}
			continue
		}
		if dom[j] && c >= 0 {
			p.fix(j, 0)
			changed = true
		}
	}
	return changed
}

// pow2Scale returns the power of two nearest to v's magnitude, or 1 when v
// is zero or the scale would leave the normal range. Powers of two make the
// scaling exact: no coefficient, bound or solution value picks up rounding.
func pow2Scale(v float64) float64 {
	if v <= 0 || math.IsInf(v, 1) {
		return 1
	}
	s := math.Exp2(math.Round(math.Log2(v)))
	if s < pow2ScaleMin || s > pow2ScaleMax {
		return 1
	}
	return s
}

// pow2Scale's clamp range: scales outside it would push coefficients toward
// the subnormal or overflow ranges, so such rows/columns go unscaled. The
// clamp also makes every scale factor safe to divide by.
const (
	pow2ScaleMin = 0x1p-512
	pow2ScaleMax = 0x1p512
)

// buildReduced assembles the reduced model over the live rows and columns,
// applying power-of-two row/column equilibration. On the ±1 design matrices
// every scale factor is exactly 1.
func (p *presolver) buildReduced() {
	m := p.m
	p.liveCols = p.liveCols[:0]
	colMap := make([]int32, p.nv)
	for j := 0; j < p.nv; j++ {
		colMap[j] = -1
		if !p.colFixed[j] {
			colMap[j] = int32(len(p.liveCols))
			p.liveCols = append(p.liveCols, int32(j))
		}
	}
	p.liveRows = p.liveRows[:0]
	for i := 0; i < p.nr; i++ {
		if !p.rowDead[i] {
			p.liveRows = append(p.liveRows, int32(i))
		}
	}
	// Row scales from the live coefficients, then column scales from the
	// row-scaled coefficients.
	p.rowScale = make([]float64, p.nr)
	for _, i := range p.liveRows {
		worst := 0.0
		for _, t := range m.rows[i].terms {
			if p.colFixed[t.Var] {
				continue
			}
			if a := math.Abs(t.Coef); a > worst {
				worst = a
			}
		}
		p.rowScale[i] = pow2Scale(worst)
	}
	p.colScale = make([]float64, p.nv)
	colMax := make([]float64, p.nv)
	for _, i := range p.liveRows {
		rs := p.rowScale[i]
		for _, t := range m.rows[i].terms {
			if p.colFixed[t.Var] {
				continue
			}
			//lint:ignore nanguard pow2Scale clamps scales to [2^-512, 2^512]
			if a := math.Abs(t.Coef) / rs; a > colMax[t.Var] {
				colMax[t.Var] = a
			}
		}
	}
	for _, j := range p.liveCols {
		p.colScale[j] = pow2Scale(colMax[j])
	}

	red := NewModel()
	red.AddVars(len(p.liveCols))
	for _, j := range p.liveCols {
		nj := VarID(colMap[j])
		//lint:ignore nanguard pow2Scale clamps scales to [2^-512, 2^512]
		red.SetObj(nj, m.obj[j]/p.colScale[j])
		if !math.IsInf(p.ub[j], 1) {
			red.SetUpper(nj, p.ub[j]*p.colScale[j])
		}
	}
	terms := make([]Term, 0, 16)
	for _, i := range p.liveRows {
		rs := p.rowScale[i]
		terms = terms[:0]
		for _, t := range m.rows[i].terms {
			if p.colFixed[t.Var] {
				continue
			}
			terms = append(terms, Term{
				Var:  VarID(colMap[t.Var]),
				Coef: t.Coef / (rs * p.colScale[t.Var]),
			})
		}
		//lint:ignore nanguard pow2Scale clamps scales to [2^-512, 2^512]
		red.AddRow(terms, m.rows[i].rel, p.rhs[i]/rs, m.rows[i].name)
	}
	p.red = red
}

// directSolution reports the fully reduced case, where presolve fixed every
// column and removed every row.
func (p *presolver) directSolution() *Solution {
	sol := &Solution{
		Status:    Optimal,
		Objective: p.offset,
		X:         make([]float64, p.nv),
		Dual:      make([]float64, p.nr),
		Diag:      Diagnostics{Presolve: p.stats},
	}
	copy(sol.X, p.colVal)
	p.replayDuals(sol.X, sol.Dual)
	return sol
}

// postsolve lifts the reduced solution back onto the original model:
// unscale, scatter the live values, fill in the fixed columns, and rebuild
// the duals of the eliminated rows from the postsolve stack.
func (p *presolver) postsolve(sol *Solution) *Solution {
	if sol.Status != Optimal {
		// Infeasible/Unbounded/IterLimit certificates live on the reduced
		// model; only the status and diagnostics translate.
		sol.Diag.Presolve = p.stats
		sol.X = nil
		sol.Dual = nil
		return sol
	}
	x := make([]float64, p.nv)
	copy(x, p.colVal)
	for nj, j := range p.liveCols {
		//lint:ignore nanguard pow2Scale clamps scales to [2^-512, 2^512]
		x[j] = sol.X[nj] / p.colScale[j]
	}
	y := make([]float64, p.nr)
	for ni, i := range p.liveRows {
		//lint:ignore nanguard pow2Scale clamps scales to [2^-512, 2^512]
		y[i] = sol.Dual[ni] / p.rowScale[i]
	}
	p.replayDuals(x, y)
	sol.X = x
	sol.Dual = y
	sol.Objective += p.offset
	sol.Diag.Presolve = p.stats
	return sol
}

// replayDuals walks the postsolve stack in reverse removal order, assigning
// each eliminated row the dual its reduction implies. Rows restored earlier
// (removed later) already carry their duals when earlier removals are
// processed, which is what makes chained substitutions come out right.
func (p *presolver) replayDuals(x, y []float64) {
	for s := len(p.stack) - 1; s >= 0; s-- {
		act := p.stack[s]
		switch act.kind {
		case psRowDropped:
			// Structurally slack: zero dual, already in place.
		case psRowFixEQ:
			// Stationarity of the fixed column: c_j - sum_k a_kj y_k = 0,
			// solved for this row's multiplier.
			d := p.m.obj[act.col]
			for _, e := range p.colRows[act.col] {
				if int(e.row) == act.row {
					continue
				}
				d -= e.coef * y[e.row]
			}
			//lint:ignore nanguard model rows drop exact-zero coefficients at merge
			y[act.row] = d / act.coef
		case psRowBound:
			y[act.row] = p.boundRowDual(act, x, y)
		}
	}
}

// boundRowDual computes the dual of a singleton row folded into an upper
// bound: when this row supplied the bound and the bound is active, the
// bound's reduced cost transfers to the row (divided by the coefficient);
// otherwise the row is slack and its dual is zero. A sign check guards the
// degenerate case where the bound is tight but not binding.
func (p *presolver) boundRowDual(act psAction, x, y []float64) float64 {
	j := act.col
	if p.boundRow[j] != act.row {
		return 0
	}
	// Active means the variable actually sits on the folded bound.
	if math.Abs(x[j]-p.ub[j]) > primalTol*(1+math.Abs(p.ub[j])) {
		return 0
	}
	d := p.m.obj[j]
	for _, e := range p.colRows[j] {
		d -= e.coef * y[e.row]
	}
	//lint:ignore nanguard model rows drop exact-zero coefficients at merge
	yi := d / act.coef
	rel := p.m.rows[act.row].rel
	if (rel == LE && yi > 0) || (rel == GE && yi < 0) {
		return 0
	}
	return yi
}
