package topo

// signedPerms is the hyperoctahedral group B_n, the 2^n n! signed
// permutations of n axes: element m maps a coordinate vector v to w with
// w[i] = v[perm[m][i]], negated when bit i of sign[m] is set. B_2 is the
// dihedral group of the square and B_3 the symmetry group of the cube; the
// k-ary n-cube's automorphisms are B_n about the origin followed by a
// translation, and the mesh's are the B_2 elements that fix its box.
//
// The element order is part of every folded LP: PairAut takes the first
// element mapping an offset into the fundamental cone, and the mesh's
// exhaustive fold walks Elements() in order. Reordering a table changes which automorphism folds each pair, and
// with it every design fingerprint.
type signedPerms struct {
	dims    int
	perm    [][3]int
	sign    []int
	compose [][]int  // compose[a][b]: first a, then b
	inverse []int    // group inverse
	port    [][6]int // port image; port p steps axis p/2, forward when p is even
}

var (
	// b2 lists the square's symmetries in the historical dihedral order:
	// (x,y), (y,x), (-x,y), (x,-y), (-x,-y), (-y,x), (y,-x), (-y,-x).
	b2 = newSignedPerms(2, [][3]int{{0, 1}, {1, 0}, {0, 1}, {0, 1}, {0, 1}, {1, 0}, {1, 0}, {1, 0}},
		[]int{0, 0, 1, 2, 3, 1, 2, 3})
	// b3 lists the six axis permutations in lexicographic order, each with
	// its eight sign patterns: m = permIndex*8 + sign.
	b3 = newB3()
)

func newB3() *signedPerms {
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var perm [][3]int
	var sign []int
	for _, p := range perms {
		for s := 0; s < 8; s++ {
			perm = append(perm, p)
			sign = append(sign, s)
		}
	}
	return newSignedPerms(3, perm, sign)
}

// newSignedPerms builds the composition, inverse and port-image tables of a
// complete list of signed permutations by probing their actions.
func newSignedPerms(dims int, perm [][3]int, sign []int) *signedPerms {
	g := &signedPerms{dims: dims, perm: perm, sign: sign}
	size := len(perm)
	// An element is determined by its images of the basis vectors.
	basis := func(apply func(v [3]int) [3]int) (key [3][3]int) {
		for j := 0; j < dims; j++ {
			var e [3]int
			e[j] = 1
			key[j] = apply(e)
		}
		return key
	}
	index := make(map[[3][3]int]int, size)
	for m := 0; m < size; m++ {
		index[basis(func(v [3]int) [3]int { return g.apply(m, v) })] = m
	}
	g.compose = make([][]int, size)
	g.inverse = make([]int, size)
	for a := 0; a < size; a++ {
		g.compose[a] = make([]int, size)
		for b := 0; b < size; b++ {
			ab := index[basis(func(v [3]int) [3]int { return g.apply(b, g.apply(a, v)) })]
			g.compose[a][b] = ab
			if ab == 0 {
				g.inverse[a] = b
			}
		}
	}
	g.port = make([][6]int, size)
	for m := 0; m < size; m++ {
		for p := 0; p < 2*dims; p++ {
			var u [3]int
			u[p/2] = 1 - 2*(p&1)
			w := g.apply(m, u)
			for i := 0; i < dims; i++ {
				if w[i] != 0 {
					g.port[m][p] = 2*i + (1-w[i])/2
				}
			}
		}
	}
	return g
}

// size is the group order.
func (g *signedPerms) size() int { return len(g.perm) }

// apply maps a coordinate vector through element m, without modular
// reduction.
func (g *signedPerms) apply(m int, v [3]int) (w [3]int) {
	p, s := g.perm[m], g.sign[m]
	for i := 0; i < g.dims; i++ {
		w[i] = v[p[i]]
		if s>>i&1 == 1 {
			w[i] = -w[i]
		}
	}
	return w
}
