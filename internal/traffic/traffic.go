// Package traffic provides the traffic-pattern machinery of the paper:
// doubly-stochastic traffic matrices, the uniform pattern, permutation
// patterns (including the named adversarial patterns used in torus studies),
// random sampling of doubly-stochastic matrices for the average-case cost
// function of Section 3.3, and the Birkhoff-von Neumann decomposition that
// underlies both the worst-case analysis (it is why permutations suffice as
// worst cases) and the appendix's dual interpretation.
package traffic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tcr/internal/matching"
	"tcr/internal/topo"
)

// Numerical tolerances for matrix generation and decomposition.
const (
	// sinkhornFloor keeps every sampled entry strictly positive so the
	// Sinkhorn iteration cannot divide by a zero row or column sum.
	sinkhornFloor = 1e-12
	// sinkhornTol stops the Sinkhorn iteration once every column sum is
	// within this distance of 1.
	sinkhornTol = 1e-12
	// stochasticCheckTol is how far row/column sums may deviate from 1
	// before BirkhoffDecompose rejects the matrix as not doubly
	// stochastic.
	stochasticCheckTol = 1e-6
)

// Matrix is a traffic pattern: L[s][d] is the fraction of source s's unit
// injection bandwidth destined to node d. Valid patterns are
// doubly-substochastic; the patterns of interest are doubly-stochastic
// (every row and column sums to one).
type Matrix struct {
	N int
	L [][]float64
}

// NewMatrix returns an all-zero n x n pattern.
func NewMatrix(n int) *Matrix {
	l := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range l {
		l[i] = buf[i*n : (i+1)*n]
	}
	return &Matrix{N: n, L: l}
}

// Uniform returns the uniform pattern U with u[s][d] = 1/N, the pattern that
// defines network capacity.
func Uniform(n int) *Matrix {
	m := NewMatrix(n)
	v := 1 / float64(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			m.L[s][d] = v
		}
	}
	return m
}

// Permutation returns the pattern of a permutation: node s sends all its
// traffic to perm[s].
func Permutation(perm []int) *Matrix {
	m := NewMatrix(len(perm))
	for s, d := range perm {
		m.L[s][d] = 1
	}
	return m
}

// RandomPermutation returns a uniformly random permutation pattern.
func RandomPermutation(n int, rng *rand.Rand) *Matrix {
	return Permutation(rng.Perm(n))
}

// Tornado returns the tornado pattern on a torus: every node sends to the
// node almost half-way around its x ring, the classic adversary for minimal
// routing on tori.
func Tornado(t *topo.Torus) *Matrix {
	m := NewMatrix(t.N)
	shift := (t.K+1)/2 - 1 // ceil(k/2) - 1 hops in +x
	if shift == 0 {
		shift = 1
	}
	for n := 0; n < t.N; n++ {
		x, y := t.Coord(topo.Node(n))
		d := t.NodeAt(x+shift, y)
		m.L[n][d] = 1
	}
	return m
}

// Transpose returns the matrix-transpose pattern: (x, y) sends to (y, x).
func Transpose(t *topo.Torus) *Matrix {
	m := NewMatrix(t.N)
	for n := 0; n < t.N; n++ {
		x, y := t.Coord(topo.Node(n))
		m.L[n][t.NodeAt(y, x)] = 1
	}
	return m
}

// Complement returns the bit-complement-style pattern: (x, y) sends to
// (k-1-x, k-1-y).
func Complement(t *topo.Torus) *Matrix {
	m := NewMatrix(t.N)
	for n := 0; n < t.N; n++ {
		x, y := t.Coord(topo.Node(n))
		m.L[n][t.NodeAt(t.K-1-x, t.K-1-y)] = 1
	}
	return m
}

// DiagonalShift returns the permutation (x, y) -> (x+s, y+s): a family of
// benign patterns useful in tests.
func DiagonalShift(t *topo.Torus, s int) *Matrix {
	m := NewMatrix(t.N)
	for n := 0; n < t.N; n++ {
		x, y := t.Coord(topo.Node(n))
		m.L[n][t.NodeAt(x+s, y+s)] = 1
	}
	return m
}

// RandomDoublyStochastic samples a random doubly-stochastic matrix by
// Sinkhorn-normalizing an i.i.d. Exponential(1) matrix. This is the sample
// generator behind the average-case cost function (Section 3.3, |X| random
// traffic matrices).
//
// Each iteration normalizes the rows, then the columns, and stops once
// every column sum was within sinkhornTol of 1. The matrix is swept in row
// order only, once per iteration: each row first takes the previous
// iteration's column scaling while its sum is taken (in d order), then its
// own scaling while it is added into the column sums (each column's terms
// in s order). Every sum and product is thus the one the textbook
// row-pass, column-pass loop forms.
func RandomDoublyStochastic(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n)
	for _, row := range m.L {
		for d := range row {
			row[d] = rng.ExpFloat64() + sinkhornFloor
		}
	}
	buf := make([]float64, 2*n)
	colSum, colInv := buf[:n], buf[n:]
	for d := range colInv {
		colInv[d] = 1 // no column scaling before the first row pass; x*1 is exact
	}
	for iter := 0; iter < 10000; iter++ {
		clear(colSum)
		// Rows go in pairs so that two row sums, each a serial chain of
		// additions, are in flight at once.
		rows := m.L
		for ; len(rows) >= 2; rows = rows[2:] {
			r0, r1 := rows[0][:n], rows[1][:n]
			var sum0, sum1 float64
			for d, inv := range colInv {
				r0[d] *= inv
				r1[d] *= inv
				sum0 += r0[d]
				sum1 += r1[d]
			}
			scaleAndSum(r0, 1/sum0, colSum)
			scaleAndSum(r1, 1/sum1, colSum)
		}
		if len(rows) == 1 {
			r0 := rows[0][:n]
			var sum0 float64
			for d, inv := range colInv {
				r0[d] *= inv
				sum0 += r0[d]
			}
			scaleAndSum(r0, 1/sum0, colSum)
		}
		var worst float64
		for d, sum := range colSum {
			if dev := math.Abs(sum - 1); dev > worst {
				worst = dev
			}
			colInv[d] = 1 / sum
		}
		if worst < sinkhornTol {
			break
		}
	}
	for _, row := range m.L {
		for d, inv := range colInv {
			row[d] *= inv
		}
	}
	return m
}

// scaleAndSum multiplies row by inv and adds it into colSum.
func scaleAndSum(row []float64, inv float64, colSum []float64) {
	for d := range colSum {
		row[d] *= inv
		colSum[d] += row[d]
	}
}

// Sample draws count independent doubly-stochastic matrices with a fixed
// seed, the set X of the average-case formulation.
func Sample(n, count int, seed int64) []*Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Matrix, count)
	for i := range out {
		out[i] = RandomDoublyStochastic(n, rng)
	}
	return out
}

// MaxStochasticityError returns the largest deviation of any row or column
// sum from one.
func (m *Matrix) MaxStochasticityError() float64 {
	var worst float64
	for s := 0; s < m.N; s++ {
		var sum float64
		for d := 0; d < m.N; d++ {
			sum += m.L[s][d]
		}
		if dev := math.Abs(sum - 1); dev > worst {
			worst = dev
		}
	}
	for d := 0; d < m.N; d++ {
		var sum float64
		for s := 0; s < m.N; s++ {
			sum += m.L[s][d]
		}
		if dev := math.Abs(sum - 1); dev > worst {
			worst = dev
		}
	}
	return worst
}

// Scale multiplies every entry by f (injection-rate scaling) and returns the
// receiver for chaining.
func (m *Matrix) Scale(f float64) *Matrix {
	for s := range m.L {
		for d := range m.L[s] {
			m.L[s][d] *= f
		}
	}
	return m
}

// Clone deep-copies the pattern.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	for s := range m.L {
		copy(c.L[s], m.L[s])
	}
	return c
}

// BirkhoffTerm is one component of a Birkhoff-von Neumann decomposition.
type BirkhoffTerm struct {
	Coef float64
	Perm []int
}

// ErrNotDoublyStochastic reports a decomposition request on a matrix that is
// not (numerically) doubly stochastic.
var ErrNotDoublyStochastic = errors.New("traffic: matrix is not doubly stochastic")

// BirkhoffDecompose expresses a doubly-stochastic matrix as a convex
// combination of at most (N-1)^2+1 permutation matrices (Birkhoff's theorem,
// reference [32] of the paper). The greedy construction repeatedly finds a
// perfect matching on the positive support and subtracts the support's
// minimum entry.
func BirkhoffDecompose(m *Matrix, tol float64) ([]BirkhoffTerm, error) {
	if err := checkDoublyStochastic(m, stochasticCheckTol); err != nil {
		return nil, err
	}
	n := m.N
	rem := m.Clone()
	var terms []BirkhoffTerm
	remaining := 1.0
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for remaining > tol {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				adj[s][d] = rem.L[s][d] > tol/float64(n)
			}
		}
		perm, ok := matching.PerfectMatching(adj)
		if !ok {
			// Numerical crumbs remain but no full support matching:
			// spread the remainder on the last permutation found, or fail
			// if none exists.
			if len(terms) == 0 {
				return nil, fmt.Errorf("%w: no perfect matching on support", ErrNotDoublyStochastic)
			}
			terms[len(terms)-1].Coef += remaining
			remaining = 0
			break
		}
		coef := math.Inf(1)
		for s, d := range perm {
			if rem.L[s][d] < coef {
				coef = rem.L[s][d]
			}
		}
		if coef <= 0 {
			return nil, fmt.Errorf("%w: nonpositive support minimum", ErrNotDoublyStochastic)
		}
		if coef > remaining {
			coef = remaining
		}
		for s, d := range perm {
			rem.L[s][d] -= coef
		}
		p := make([]int, n)
		copy(p, perm)
		terms = append(terms, BirkhoffTerm{Coef: coef, Perm: p})
		remaining -= coef
	}
	return terms, nil
}

// Recompose sums coef * permutation over the terms; the inverse of
// BirkhoffDecompose up to the tolerance, used by tests.
func Recompose(n int, terms []BirkhoffTerm) *Matrix {
	m := NewMatrix(n)
	for _, t := range terms {
		for s, d := range t.Perm {
			m.L[s][d] += t.Coef
		}
	}
	return m
}

func checkDoublyStochastic(m *Matrix, tol float64) error {
	if e := m.MaxStochasticityError(); e > tol {
		return fmt.Errorf("%w: row/col sum error %g", ErrNotDoublyStochastic, e)
	}
	for s := range m.L {
		for d := range m.L[s] {
			if m.L[s][d] < -tol {
				return fmt.Errorf("%w: negative entry %g", ErrNotDoublyStochastic, m.L[s][d])
			}
		}
	}
	return nil
}
