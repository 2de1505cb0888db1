package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no nonnegative solution.
	Infeasible
	// Unbounded means the objective can be decreased without limit.
	Unbounded
	// IterLimit means the iteration budget was exhausted before
	// convergence; the solution fields hold the best basis reached.
	IterLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the values of the structural (model) variables.
	X []float64
	// Dual holds one multiplier per constraint row, with the convention
	// Dual[i] = d(objective)/d(rhs[i]) at the optimum. For a minimization
	// with a binding <= row the dual is <= 0.
	Dual []float64
	// Iterations counts simplex pivots across all phases of the solve.
	Iterations int
	// Diag is the numerical post-mortem of the solve that produced this
	// solution: recovery-ladder steps taken, refactorization count,
	// residuals, and budget consumption. See Diagnostics.
	Diag Diagnostics
}

// ErrNumerical is returned when the solver cannot maintain a numerically
// trustworthy basis even after refactorization.
var ErrNumerical = errors.New("lp: numerical failure")

// Engine selects the basis-inverse representation the solver maintains.
type Engine int

const (
	// EngineEta factorizes the basis by sparse LU with Markowitz-style
	// pivot ordering and represents subsequent pivots as eta vectors
	// (product form of the inverse). FTRAN/BTRAN cost scales with factor
	// fill rather than m^2, which is what the large design LPs need.
	EngineEta Engine = iota
	// EngineDense keeps an explicit dense m x m basis inverse updated by
	// rank-1 pivots. Retained as a fallback and as the reference oracle
	// the equivalence tests pit the eta engine against.
	EngineDense
)

// String returns a short engine name.
func (e Engine) String() string {
	switch e {
	case EngineEta:
		return "eta"
	case EngineDense:
		return "dense"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// column kinds in the computational form.
type colKind uint8

const (
	kindStruct  colKind = iota
	kindSlack           // +1 logical of a <= row
	kindSurplus         // -1 logical of a >= row
	kindArtificial
)

// FeasTol is the absolute primal feasibility tolerance of a solve: an
// optimal basic solution satisfies every row and bound to within it.
// Consumers of LP solutions derive their own accuracy allowances from it.
const FeasTol = primalTol

// Tolerances. The routing LPs are well scaled (coefficients are path counts
// and probabilities), so fixed tolerances suffice. Every numerical epsilon
// the solver uses is named here; call sites must not inline magic values
// (enforced by the tolconst analyzer).
const (
	dualTol    = 1e-7 // reduced-cost optimality tolerance
	primalTol  = 1e-7 // bound-feasibility tolerance
	pivotTol   = 1e-9 // smallest acceptable pivot magnitude
	residCheck = 1e-7 // basis accuracy trigger for refactorization
	phase1Tol  = 1e-7 // max artificial mass at a feasible phase-1 optimum
	// infeasMassMin is the smallest residual artificial mass a *certified*
	// phase-1 optimum may carry and still be declared Infeasible. Between
	// phase1Tol and this floor lies the gray zone where rounding noise on a
	// feasible-by-a-sliver model is indistinguishable from a genuine
	// hairline violation; the solver sides with feasibility there, matching
	// the accuracy the rest of the pipeline actually guarantees.
	infeasMassMin = 1e-5
	ratioTieTol   = 1e-12 // tie window in primal/dual ratio tests
	degenStepTol  = 1e-10 // steps at or below this count as degenerate pivots
	xbPerturb     = 1e-7  // anti-cycling basic-value perturbation magnitude
)

// Solver holds the computational form of a model plus a (re)usable basis.
// It supports cold solves, then warm-started re-solves after AddCut and
// SetRHS (dual simplex) or SetObjCoef (primal simplex).
//
// A Solver is not safe for concurrent use.
type Solver struct {
	structN int // number of structural columns
	nRows   int

	// Sparse columns, including logicals and artificials.
	cost   []float64 // true phase-2 objective per column
	costP  []float64 // perturbed objective actually optimized (anti-degeneracy)
	colR   [][]int32
	colV   [][]float64
	kind   []colKind
	barred []bool // true for artificials outside phase 1

	rhs    []float64
	rowRel []Rel
	artOf  []int // artificial column index per row
	logOf  []int // slack/surplus column per row, -1 if none (EQ)

	// Bounded-variable state: finite upper bounds are variable state, not
	// rows. A nonbasic variable rests at its lower bound (0) or, when
	// atUpper, at ub. hasBounds gates every bound-aware branch so unbounded
	// models run the exact legacy code paths.
	hasBounds bool
	ub        []float64 // per-column upper bound, +Inf when none
	atUpper   []bool    // nonbasic-at-upper flags (meaningless while basic)
	ubList    []int32   // columns carrying a finite upper bound

	// singR/singV are the arena behind the logical/artificial singleton
	// columns created during construction; addCol carves from them while
	// capacity lasts and falls back to per-column slices afterwards
	// (AddCut-time rows).
	singR []int32
	singV []float64

	basis []int // column basic in each row
	pos   []int // column -> basis row, -1 when nonbasic
	binv  [][]float64
	xB    []float64

	// Basis-inverse engine state. The eta engine keeps a sparse LU
	// factorization plus an eta file of post-factorization pivots; the
	// dense engine keeps binv. Exactly one is live per solver.
	engine    Engine
	lu        luFactor
	luw       luWork
	etas      etaFile
	factorOK  bool // sparse factors match the current basis column set
	xbStale   bool // xB must be recomputed once factors are available
	luRepairs int  // artificial substitutions in the last sparse factorize
	// basisRepaired tells the simplex drivers that a refactorization inside
	// the last pivot swapped basis columns, invalidating incremental duals.
	basisRepaired bool

	haveBasis  bool // a factorized, primal-feasible-phase basis exists
	dirtyObj   bool // objective changed since last solve
	dirtyRows  bool // rows added / rhs changed since last solve
	lastStatus Status
	solvedOnce bool
	noJitter   bool

	// err is the first construction/mutation error (inherited from the
	// model, or recorded by AddCut/SetObjCoef). Solve reports it instead
	// of optimizing a corrupted problem.
	err error

	// MaxIters bounds the total pivots per Solve call. Zero means a
	// generous default proportional to the problem size.
	MaxIters int

	iterations int

	// Devex pricing state (primal simplex): per-column reference weights
	// and the partial-pricing candidate list with its rotating cursor.
	devexW     []float64
	cand       []int
	candCursor int

	// Recovery-ladder state (recover.go): the context whose deadline bounds
	// the running solve, the diagnostics being accumulated, and the
	// escalation switches the ladder flips between attempts. perturbScale
	// > 1 multiplies both jitters at the escalate-perturbation rung.
	ctx          context.Context
	diag         Diagnostics
	forceBland   bool
	perturbScale float64

	// chaos carries the fault-injection hooks; outside -tags lpchaos builds
	// it is a typed nil whose methods are inlined no-ops.
	chaos *chaosCfg

	// scratch buffers, solver-owned so steady-state pivots allocate
	// nothing: y (duals), u (FTRAN image), rho (BTRAN row), work
	// (residual probe), rowSp/posSp (row-/position-space solve vectors),
	// bmat (dense-engine factorization rows).
	y, u, rho, work, rowSp, posSp []float64
	bmat                          [][]float64
}

// NewSolver captures the model into computational form. The model may be
// discarded afterwards; use the Solver's own mutators for warm-started
// changes.
func NewSolver(m *Model) *Solver {
	s := &Solver{structN: m.NumVars(), err: m.err, engine: defaultEngine}
	nv, nr := m.NumVars(), m.NumRows()
	ncap := nv + 2*nr
	s.cost = make([]float64, 0, ncap)
	s.colR = make([][]int32, 0, ncap)
	s.colV = make([][]float64, 0, ncap)
	s.kind = make([]colKind, 0, ncap)
	s.barred = make([]bool, 0, ncap)
	// Pre-count each structural column's nonzeros and carve the column
	// storage out of two shared slabs: per-column append growth was the
	// solver-construction allocation hot spot on the mesh-family models.
	cnt := make([]int32, nv)
	tot := 0
	for i := range m.rows {
		for _, t := range m.rows[i].terms {
			cnt[t.Var]++
		}
		tot += len(m.rows[i].terms)
	}
	slabR := make([]int32, tot)
	slabV := make([]float64, tot)
	off := 0
	for j := 0; j < nv; j++ {
		s.cost = append(s.cost, m.obj[j])
		n := int(cnt[j])
		s.colR = append(s.colR, slabR[off:off:off+n])
		s.colV = append(s.colV, slabV[off:off:off+n])
		off += n
		s.kind = append(s.kind, kindStruct)
		s.barred = append(s.barred, false)
	}
	s.singR = make([]int32, 0, 2*nr)
	s.singV = make([]float64, 0, 2*nr)
	s.rhs = make([]float64, 0, nr)
	s.rowRel = make([]Rel, 0, nr)
	s.logOf = make([]int, 0, nr)
	s.artOf = make([]int, 0, nr)
	for i := range m.rows {
		r := &m.rows[i]
		s.appendRow(r.terms, r.rel, r.rhs)
	}
	if m.HasUpper() {
		s.hasBounds = true
		s.growBounds()
		for j := 0; j < nv; j++ {
			if u := m.Upper(VarID(j)); !math.IsInf(u, 1) {
				s.ub[j] = u
				s.ubList = append(s.ubList, int32(j))
			}
		}
	}
	s.buildCostP()
	return s
}

// growBounds pads the bound arrays to the current column count (+Inf / not
// at upper for the new columns). No-op on solvers without bounds.
func (s *Solver) growBounds() {
	if !s.hasBounds {
		return
	}
	for len(s.ub) < len(s.cost) {
		s.ub = append(s.ub, math.Inf(1))
		s.atUpper = append(s.atUpper, false)
	}
}

// SetEngine selects the basis-inverse engine. Switching engines discards
// the current basis, so the next Solve is a cold solve; call it before the
// first Solve to avoid redundant work. The default is the eta engine (or
// the dense engine when built with -tags lpdense).
func (s *Solver) SetEngine(e Engine) {
	if e == s.engine {
		return
	}
	s.engine = e
	s.haveBasis = false
	s.factorOK = false
}

// GetEngine reports the active basis-inverse engine.
func (s *Solver) GetEngine() Engine { return s.engine }

// SetJitter toggles the anti-degeneracy cost perturbation. It is on by
// default; problems whose optimal faces are huge and harmless (e.g. the
// path-probability LPs, where any optimal vertex is equally good) solve
// faster without the jitter steering the simplex to a specific vertex.
func (s *Solver) SetJitter(on bool) {
	s.noJitter = !on
	s.buildCostP()
	s.dirtyObj = true
}

// buildCostP derives the perturbed objective the simplex actually
// optimizes: each column's cost gains a tiny deterministic positive jitter.
// Network LPs are massively dual degenerate (whole faces of optimal bases);
// the jitter makes the optimum essentially unique, which is the classic
// industrial cure for degenerate stalling. The jitter is small enough that
// the reported objective (always computed with the true costs) stays within
// the solver's tolerances of the true optimum.
func (s *Solver) buildCostP() {
	if cap(s.costP) < len(s.cost) {
		s.costP = make([]float64, len(s.cost))
	}
	s.costP = s.costP[:len(s.cost)]
	jit := costJitter
	if s.perturbScale > 1 {
		// The ladder's escalate-perturbation rung amplifies the jitter to
		// break pathological degeneracy, even for jitter-free solvers.
		jit *= s.perturbScale
	} else if s.noJitter {
		copy(s.costP, s.cost)
		return
	}
	rng := uint64(0x853c49e6748fea9b)
	for j, c := range s.cost {
		rng = rng*6364136223846793005 + 1442695040888963407
		f := float64(rng>>11) / (1 << 53) // in [0,1)
		s.costP[j] = c + jit*(0.5+f)*(1+math.Abs(c))
	}
}

// costJitter scales the anti-degeneracy objective perturbation.
const costJitter = 1e-9

// appendRow installs one constraint row into the computational form: its
// structural coefficients, a logical column (for LE/GE), and an artificial
// column whose sign makes the artificial's initial value nonnegative.
func (s *Solver) appendRow(terms []Term, rel Rel, rhs float64) int {
	i := s.nRows
	s.nRows++
	s.rhs = append(s.rhs, rhs)
	s.rowRel = append(s.rowRel, rel)
	for _, t := range terms {
		j := int(t.Var)
		s.colR[j] = append(s.colR[j], int32(i))
		s.colV[j] = append(s.colV[j], t.Coef)
	}
	log := -1
	switch rel {
	case LE:
		log = s.addCol(kindSlack, i, 1)
	case GE:
		log = s.addCol(kindSurplus, i, -1)
	}
	s.logOf = append(s.logOf, log)
	sign := 1.0
	if rhs < 0 {
		sign = -1
	}
	art := s.addCol(kindArtificial, i, sign)
	s.barred[art] = true
	s.artOf = append(s.artOf, art)
	return i
}

// addCol adds a single-entry column and returns its index.
func (s *Solver) addCol(k colKind, row int, val float64) int {
	j := len(s.cost)
	s.cost = append(s.cost, 0)
	// costP is rebuilt by the callers that add columns after construction
	// (AddCut via buildCostP).
	if n := len(s.singR); n < cap(s.singR) {
		// Carve the singleton from the construction arena (full-capacity
		// slice expressions, so an append could never bleed into the next
		// column; logical/artificial columns are never extended anyway).
		s.singR = append(s.singR, int32(row))
		s.singV = append(s.singV, val)
		s.colR = append(s.colR, s.singR[n:n+1:n+1])
		s.colV = append(s.colV, s.singV[n:n+1:n+1])
	} else {
		s.colR = append(s.colR, []int32{int32(row)})
		s.colV = append(s.colV, []float64{val})
	}
	s.kind = append(s.kind, k)
	s.barred = append(s.barred, false)
	return j
}

// NumRows reports the current number of rows, including added cuts.
func (s *Solver) NumRows() int { return s.nRows }

// AddCut appends a constraint row after construction (a cutting plane).
// The existing basis, if any, is extended so that the next Solve can
// warm-start with the dual simplex. It returns the new row's index.
// Malformed terms record a sticky error that the next Solve reports.
func (s *Solver) AddCut(terms []Term, rel Rel, rhs float64) int {
	merged, err := mergeTerms(terms, s.structN)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("lp: AddCut: %w", err)
	}
	i := s.appendRow(merged, rel, rhs)
	s.buildCostP()
	s.growBounds()
	s.dirtyRows = true
	if !s.haveBasis {
		return i
	}
	// Extend the basis with the new row's logical (or artificial for EQ)
	// basic. New basis matrix is [[B 0] [a_B^T g]] where g is the basic
	// column's entry in the new row; its inverse is
	// [[Binv 0] [-(a_B^T Binv)/g  1/g]].
	bcol := s.logOf[i]
	if bcol < 0 {
		bcol = s.artOf[i]
	}
	// g is the single entry of a fresh logical/artificial column, ±1 by
	// construction in appendRow, so the divisions below cannot blow up.
	g := s.colV[bcol][0]
	m := s.nRows
	// a_B^T: coefficient of each currently-basic column in the new row.
	aB := make([]float64, m-1)
	for _, t := range merged {
		if r := s.pos[t.Var]; r >= 0 {
			aB[r] += t.Coef
		}
	}
	if s.engine == EngineDense {
		// Extend the explicit inverse with the bordered-block formula.
		newRow := make([]float64, m)
		for c := 0; c < m-1; c++ {
			var acc float64
			for r := 0; r < m-1; r++ {
				acc += aB[r] * s.binv[r][c]
			}
			//lint:ignore nanguard g is ±1 by construction (see above)
			newRow[c] = -acc / g
		}
		//lint:ignore nanguard g is ±1 by construction (see above)
		newRow[m-1] = 1 / g
		for r := 0; r < m-1; r++ {
			s.binv[r] = append(s.binv[r], 0)
		}
		s.binv = append(s.binv, newRow)
	} else if s.factorOK {
		// Extend the representation with a border op: the new basis is
		// block lower-triangular over the old one, so no refactorization
		// is needed — the signature eta-file win on lazy-constraint loops.
		s.etas.appendBorder(m-1, g, aB)
	}
	// (When the sparse factors are already stale, the next Solve's
	// refactorization covers the extended basis; appending a border over
	// stale factors would be incoherent.)
	s.basis = append(s.basis, bcol)
	s.pos = append(s.pos, -1)
	for len(s.pos) < len(s.cost) {
		s.pos = append(s.pos, -1)
	}
	s.pos[bcol] = m - 1
	// New basic value: (rhs - a^T x)/g, where nonbasic-at-upper variables
	// contribute their bound values alongside the basic ones.
	var act float64
	for r := 0; r < m-1; r++ {
		act += aB[r] * s.xB[r]
	}
	if s.hasBounds {
		for _, t := range merged {
			if s.pos[t.Var] < 0 && s.atUpper[t.Var] {
				act += t.Coef * s.ub[t.Var]
			}
		}
	}
	//lint:ignore nanguard g is ±1 by construction (see above)
	s.xB = append(s.xB, (rhs-act)/g)
	return i
}

// SetVarUpper imposes (or moves) an upper bound on a structural variable
// after construction. Like SetRHS, the bound is pure row-state from the
// basis's point of view: the factorization stays valid and the basis stays
// dual feasible, so the next Solve warm-starts with the dual simplex (a
// basic variable above its new bound is repaired exactly like a violated
// row). ub must be nonnegative and not NaN; +Inf removes the bound.
func (s *Solver) SetVarUpper(v VarID, ub float64) {
	if int(v) < 0 || int(v) >= s.structN {
		if s.err == nil {
			s.err = fmt.Errorf("lp: SetVarUpper on non-structural variable %d", v)
		}
		return
	}
	if math.IsNaN(ub) || ub < 0 {
		if s.err == nil {
			s.err = fmt.Errorf("lp: SetVarUpper(%d, %v): bound must be nonnegative", v, ub)
		}
		return
	}
	if !s.hasBounds {
		if math.IsInf(ub, 1) {
			return
		}
		s.hasBounds = true
	}
	s.growBounds()
	if !math.IsInf(ub, 1) && math.IsInf(s.ub[v], 1) {
		s.ubList = append(s.ubList, int32(v))
	}
	//lint:ignore floatcmp any bound movement at all unparks the variable
	moved := s.atUpper[v] && s.ub[v] != ub
	s.ub[v] = ub
	s.dirtyRows = true
	if !s.haveBasis {
		return
	}
	if moved {
		// The variable was parked on the old bound; re-park it at the lower
		// bound (dual feasibility of its sign may be lost either way — the
		// post-dual primal polish restores optimality).
		s.atUpper[v] = false
	}
	if s.engine == EngineEta && !s.factorOK {
		s.xbStale = true
		return
	}
	s.recomputeXB()
}

// SetRHS changes a row's right-hand side. The basis matrix is untouched, so
// the factorization stays valid and the basis stays dual feasible: the next
// Solve warm-starts with the dual simplex. When the factors are stale (a cut
// was added since the last solve), the xB refresh is deferred to the next
// Solve's refactorization instead of forcing one here.
func (s *Solver) SetRHS(row int, rhs float64) {
	s.rhs[row] = rhs
	s.dirtyRows = true
	if !s.haveBasis {
		return
	}
	if s.engine == EngineEta && !s.factorOK {
		s.xbStale = true
		return
	}
	s.recomputeXB()
}

// SetObjCoef changes a structural variable's objective coefficient. The
// basis stays primal feasible, so the next Solve warm-starts with the primal
// simplex. Addressing a non-structural variable records a sticky error that
// the next Solve reports.
func (s *Solver) SetObjCoef(v VarID, coef float64) {
	if int(v) < 0 || int(v) >= s.structN {
		if s.err == nil {
			s.err = fmt.Errorf("lp: SetObjCoef on non-structural variable %d", v)
		}
		return
	}
	s.cost[v] = coef
	s.buildCostP()
	s.dirtyObj = true
}

// recomputeXB sets xB = Binv * b through the active engine, where b is the
// right-hand side minus the contributions of nonbasic-at-upper variables.
func (s *Solver) recomputeXB() {
	if s.engine == EngineEta {
		b := s.growRowSp()
		copy(b, s.rhs)
		s.boundAdjustRHS(b)
		s.ftranVec(b, s.xB)
		return
	}
	m := s.nRows
	b := s.rhs
	if s.hasBounds {
		if cap(s.work) < m {
			s.work = make([]float64, m)
		}
		b = s.work[:m]
		copy(b, s.rhs)
		s.boundAdjustRHS(b)
	}
	for r := 0; r < m; r++ {
		var acc float64
		row := s.binv[r]
		for i := 0; i < m; i++ {
			acc += row[i] * b[i]
		}
		s.xB[r] = acc
	}
}

// boundAdjustRHS subtracts the at-upper nonbasic contributions from a
// row-space right-hand side: the basic values solve
// B xB = rhs - sum_{j nonbasic at upper} ub_j A_j.
func (s *Solver) boundAdjustRHS(b []float64) {
	if !s.hasBounds {
		return
	}
	for _, j32 := range s.ubList {
		j := int(j32)
		if s.pos[j] >= 0 || !s.atUpper[j] {
			continue
		}
		u := s.ub[j]
		//lint:ignore floatcmp a zero bound contributes nothing exactly
		if u == 0 {
			continue
		}
		rs, vs := s.colR[j], s.colV[j]
		for t, ri := range rs {
			b[ri] -= vs[t] * u
		}
	}
}

// maxIters returns the effective iteration budget.
func (s *Solver) maxIters() int {
	if s.MaxIters > 0 {
		return s.MaxIters
	}
	n := 200000 + 200*s.nRows
	return n
}

// solveAttempt is one run of the simplex dispatch — the body of a single
// recovery-ladder attempt (recover.go). The dirty flags and warm-start state
// are committed by the ladder's finish, not here, so a failed attempt leaves
// the dispatch decision intact for the retry.
func (s *Solver) solveAttempt() (Status, error) {
	s.ensureFactored()
	switch {
	case !s.haveBasis, s.solvedOnce && s.lastStatus != Optimal:
		// No basis yet, or the last outcome did not leave an optimal
		// basis. A non-optimal basis guarantees neither primal nor dual
		// feasibility (a phase-1 infeasibility certificate, for example,
		// is optimal only for the phase-1 costs), so every warm-start
		// assumption is off: restart from scratch.
		return s.coldSolve()
	case s.dirtyRows && !s.dirtyObj:
		st, err := s.dualSolve()
		if err == nil && st == IterLimit && !s.diag.DeadlineHit {
			// fall back to a cold solve before giving up (pointless when
			// the context deadline is what ended the dual run)
			st, err = s.coldSolve()
		}
		return st, err
	default:
		// Objective changed (or both changed): re-run primal; if rows
		// also changed the basis may be primal infeasible, so run dual
		// first to restore feasibility under the old costs is wrong --
		// simplest correct path is a fresh phase-1.
		if s.dirtyRows {
			return s.coldSolve()
		}
		return s.primalFromBasis()
	}
}

// ensureFactored brings the eta engine's factors back in sync with a warm
// basis that was extended by AddCut since the last solve. A factorization
// failure (the extended basis went numerically bad) simply drops the warm
// basis: the subsequent cold solve rebuilds from the all-logical start,
// which factorizes trivially.
func (s *Solver) ensureFactored() {
	if s.engine != EngineEta || !s.haveBasis || s.factorOK {
		return
	}
	if err := s.factorize(); err != nil {
		s.haveBasis = false
		s.xbStale = false
		return
	}
	if s.luRepairs > 0 || s.xbStale {
		s.recomputeXB()
	}
	s.xbStale = false
}

// coldSolve builds the all-logical/artificial starting basis and runs
// phase 1 then phase 2.
func (s *Solver) coldSolve() (Status, error) {
	m := s.nRows
	if s.hasBounds {
		// The all-logical start parks every structural at its lower bound.
		for j := range s.atUpper {
			s.atUpper[j] = false
		}
	}
	s.basis = make([]int, m)
	s.pos = make([]int, len(s.cost))
	for j := range s.pos {
		s.pos[j] = -1
	}
	needPhase1 := false
	for i := 0; i < m; i++ {
		b := s.rhs[i]
		var col int
		switch {
		case s.rowRel[i] == LE && b >= 0:
			col = s.logOf[i]
		case s.rowRel[i] == GE && b <= 0:
			col = s.logOf[i]
		default:
			// Any basic artificial needs phase 1, even at value zero (an EQ
			// row with rhs 0): phase 2 is free to grow a basic artificial it
			// never prices, silently violating the row. Phase 1 at zero mass
			// costs one pricing pass and drives the artificial out.
			col = s.artOf[i]
			needPhase1 = true
		}
		s.basis[i] = col
		s.pos[col] = i
	}
	if err := s.factorize(); err != nil {
		return 0, err
	}
	s.xB = make([]float64, m)
	s.recomputeXB()
	s.haveBasis = true

	if needPhase1 {
		st, err := s.phase1()
		if err != nil || st != Optimal {
			return st, err
		}
	}
	return s.primalFromBasis()
}

// phase1 minimizes the sum of artificial values from the current basis.
func (s *Solver) phase1() (Status, error) {
	costs := make([]float64, len(s.cost))
	for j, k := range s.kind {
		if k == kindArtificial {
			costs[j] = 1
			s.barred[j] = false
		}
	}
	st, err := s.phase1Inner(costs)
	for j, k := range s.kind {
		if k == kindArtificial {
			s.barred[j] = true
		}
	}
	if err != nil || st != Optimal {
		return st, err
	}
	if err := s.driveOutArtificials(); err != nil {
		return 0, err
	}
	return Optimal, nil
}

// phase1Inner runs the phase-1 primal with artificials unbarred and decides
// feasibility. An Infeasible verdict is certified before it is returned:
// the artificial mass is re-measured on fresh factors (a drifted eta file
// can inflate it) and the phase-1 optimum is confirmed against exactly
// recomputed duals (a drifted y can make pricing stop early at a vertex
// that still carries artificial mass). A claim that fails confirmation
// resumes the phase-1 primal instead of mis-declaring the LP infeasible.
func (s *Solver) phase1Inner(costs []float64) (Status, error) {
	for tries := 0; ; tries++ {
		st, err := s.primal(costs)
		if err != nil {
			return 0, err
		}
		if st == IterLimit {
			return IterLimit, nil
		}
		if s.artificialMass() <= phase1Tol {
			return Optimal, nil
		}
		if s.etas.count() > 0 {
			if err := s.refresh(); err != nil {
				return 0, err
			}
			if s.artificialMass() <= phase1Tol {
				return Optimal, nil
			}
		}
		// A phase-1 "optimum" resting on negative basic values has lost
		// the primal-feasibility invariant (corrupted pivots can break the
		// ratio test): neither feasibility nor infeasibility can be read
		// off such a basis. Escalate instead of certifying.
		for _, v := range s.xB {
			if v < -primalTol*100 {
				return 0, fmt.Errorf("%w: phase-1 optimum lost primal feasibility", ErrNumerical)
			}
		}
		// Mass persists on fresh factors; confirm the vertex is a true
		// phase-1 optimum before certifying infeasibility.
		y := s.computeY(costs)
		optimal := true
		for j := range s.cost {
			if s.pos[j] >= 0 || s.barred[j] {
				continue
			}
			if _, ok := s.prices(costs, y, j); ok {
				optimal = false
				break
			}
		}
		if optimal {
			// The optimum is confirmed on fresh factors and exact duals. A
			// truly infeasible LP parks here with macroscopic mass — the
			// minimum total constraint violation. Mass at tolerance scale
			// instead is the rounding floor of a feasible-by-a-sliver model
			// (observed: a stage-2 design LP whose cap has 1e-6 relative
			// slack certified as "infeasible" by 1.7e-7 while the dense
			// engine, on a different rounding path, solved it): accept the
			// vertex rather than escalate noise into a wrong verdict.
			if s.artificialMass() <= infeasMassMin {
				return Optimal, nil
			}
			return Infeasible, nil
		}
		if tries >= 2 {
			return 0, fmt.Errorf("%w: phase-1 optimum failed dual confirmation", ErrNumerical)
		}
	}
}

// artificialMass sums the absolute values of basic artificial variables.
func (s *Solver) artificialMass() float64 {
	var sum float64
	for r, col := range s.basis {
		if s.kind[col] == kindArtificial {
			sum += math.Abs(s.xB[r])
		}
	}
	return sum
}

// driveOutArtificials pivots basic artificials (necessarily at value ~0)
// out of the basis where a usable replacement column exists. Rows with no
// replacement are linearly dependent; their artificial stays basic at zero,
// which is harmless because artificials are barred from re-entering and a
// redundant row keeps them at zero.
func (s *Solver) driveOutArtificials() error {
	for r := 0; r < s.nRows; r++ {
		col := s.basis[r]
		if s.kind[col] != kindArtificial {
			continue
		}
		// Find a nonbasic non-artificial column with a solid pivot in
		// row r of Binv*A: row r of the inverse via BTRAN, then sparse
		// dots against candidate columns.
		rho := s.btranRow(r)
		best, bestMag := -1, pivotTol*100
		for j := range s.cost {
			if s.pos[j] >= 0 || s.kind[j] == kindArtificial {
				continue
			}
			if s.hasBounds && s.atUpper[j] {
				// Entering an at-upper column at value zero would move it off
				// its bound; leave those parked.
				continue
			}
			if mag := math.Abs(s.dotCol(rho, j)); mag > bestMag {
				best, bestMag = j, mag
			}
		}
		if best < 0 {
			continue // dependent row
		}
		u := s.ftran(best)
		if err := s.pivot(best, r, u, s.xB[r], s.xB[r]); err != nil {
			return err
		}
	}
	return nil
}

// extract builds a Solution from the current basis.
func (s *Solver) extract(st Status) *Solution {
	sol := &Solution{Status: st, Iterations: s.iterations}
	sol.X = make([]float64, s.structN)
	if st == Infeasible {
		return sol
	}
	for r, col := range s.basis {
		if col < s.structN {
			v := s.xB[r]
			if v < 0 && v > -primalTol*10 {
				v = 0
			}
			sol.X[col] = v
		}
	}
	if s.hasBounds {
		for _, j32 := range s.ubList {
			j := int(j32)
			if j < s.structN && s.pos[j] < 0 && s.atUpper[j] {
				sol.X[j] = s.ub[j]
			}
		}
	}
	var obj float64
	for j := 0; j < s.structN; j++ {
		obj += s.cost[j] * sol.X[j]
	}
	sol.Objective = obj
	// Duals: y = c_B^T Binv, one per row.
	y := s.computeY(s.cost)
	sol.Dual = make([]float64, s.nRows)
	copy(sol.Dual, y)
	return sol
}

// Value returns the current value of a structural variable from the basis.
func (s *Solver) Value(v VarID) float64 {
	if r := s.pos[v]; r >= 0 {
		return s.xB[r]
	}
	if s.hasBounds && int(v) < len(s.atUpper) && s.atUpper[v] {
		return s.ub[v]
	}
	return 0
}

// AtUpperSet returns the (ascending) internal column indices of the
// nonbasic variables currently parked at their upper bounds. Together with
// Basis it captures the bounded-simplex half of a warm-start checkpoint.
func (s *Solver) AtUpperSet() []int {
	if !s.hasBounds {
		return nil
	}
	var out []int
	for _, j32 := range s.ubList {
		j := int(j32)
		if s.pos[j] < 0 && s.atUpper[j] {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// SetAtUpperSet restores a set captured by AtUpperSet onto a solver rebuilt
// through the identical construction sequence. Call it before InstallBasis:
// the recomputed basic values must include the at-upper contributions.
func (s *Solver) SetAtUpperSet(cols []int) error {
	if len(cols) == 0 {
		return nil
	}
	if !s.hasBounds {
		return fmt.Errorf("lp: SetAtUpperSet on a solver without bounds")
	}
	for j := range s.atUpper {
		s.atUpper[j] = false
	}
	for _, j := range cols {
		if j < 0 || j >= len(s.ub) || math.IsInf(s.ub[j], 1) {
			return fmt.Errorf("lp: SetAtUpperSet: column %d carries no finite bound", j)
		}
		s.atUpper[j] = true
	}
	return nil
}
