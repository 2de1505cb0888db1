package eval

import (
	"sync"

	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// LoadPlan is a read-only sparse view of a flow table for evaluating
// equation (2), gamma_c = sum_{s,d} lambda_sd * x_{rel(s,d)}(c), against
// many traffic matrices. A closed-form routing crosses few of a row's
// channels (at k=8 the mean nonzeros per row run from 5 for DOR to 136 for
// VAL, of 256), so the plan lists each row's nonzero channels once and every
// evaluation visits only those. On vertex-transitive families it also holds
// the per-source channel translation and the RelNode table, which a dense
// evaluation would otherwise recompute through the group on every call.
//
// The nonzero terms are visited in ascending channel order within each
// (s, d) row and rows in (s, d) order: exactly the terms, in exactly the
// order, a dense scan that skips zero entries adds. Loads are therefore
// bit-for-bit those of the dense evaluation.
//
// A plan stores int32 channel indices and reads values from the flow in
// place, so for every Table 1 flow at k = 4, 5 and 8 it is smaller than the
// flow table it indexes. It is safe for concurrent use; the flow must not change
// while a plan over it is in use. Plans are transient (one per evaluation
// batch) and never cached.
type LoadPlan struct {
	f *Flow
	// nz[row] lists the channels with a nonzero entry in f.X[row], in
	// ascending order. Vertex-transitive plans fill every row up front;
	// other plans fill a row the first time a traffic matrix needs it.
	nz [][]int32
	// trans[s*C+c] is channel c of source 0's frame translated to source s,
	// and rel[s*N+d] is RelNode(s, d); both nil off vertex-transitive
	// families.
	trans, rel []int32

	mu     sync.Mutex // guards filled and the filling of nz
	filled []bool     // rows of nz already indexed; nil when all are
}

// Plan builds the flow's load plan.
func (f *Flow) Plan() *LoadPlan {
	t := f.T
	p := &LoadPlan{f: f, nz: make([][]int32, len(f.X))}
	if !t.VertexTransitive() {
		p.filled = make([]bool, len(f.X))
		return p
	}
	n, nc := t.Nodes(), t.Chans()
	rows := make([]int, len(f.X))
	for i := range rows {
		rows[i] = i
	}
	p.index(rows)
	// Translations act regularly on the nodes, so the one carrying the
	// origin to v is unique (shifts[v]) and shifts[s] composed with
	// shifts[v] is shifts[s(v)]. Channel c = shifts[v](origin port q) thus
	// goes to shifts[s(v)](origin port q) under shifts[s], which builds
	// the whole table from C channel images and N^2 node images.
	tg := t.TransGroup()
	deg := nc / n
	shifts := make([]topo.AutID, n)
	from := make([]int32, nc) // from[v*deg+q] = shifts[v](origin port q)
	for v := range shifts {
		shifts[v] = transBy(tg, topo.Node(v))
		for q := 0; q < deg; q++ {
			from[v*deg+q] = int32(tg.ApplyChan(shifts[v], t.PortChan(0, q)))
		}
	}
	p.trans = make([]int32, n*nc)
	p.rel = make([]int32, n*n)
	for s, shift := range shifts {
		tr := p.trans[s*nc : (s+1)*nc]
		for v := 0; v < n; v++ {
			sv := int(tg.ApplyNode(shift, topo.Node(v))) * deg
			for q := 0; q < deg; q++ {
				tr[from[v*deg+q]] = from[sv+q]
			}
		}
		for d := 0; d < n; d++ {
			p.rel[s*n+d] = int32(t.RelNode(topo.Node(s), topo.Node(d)))
		}
	}
	return p
}

// index fills nz for the given rows from one exactly sized backing array.
func (p *LoadPlan) index(rows []int) {
	total := 0
	for _, r := range rows {
		for _, v := range p.f.X[r] {
			//lint:ignore floatcmp sparsity: channels a path never crosses stay exactly 0
			if v != 0 {
				total++
			}
		}
	}
	buf := make([]int32, 0, total)
	for _, r := range rows {
		start := len(buf)
		for c, v := range p.f.X[r] {
			//lint:ignore floatcmp sparsity: channels a path never crosses stay exactly 0
			if v != 0 {
				buf = append(buf, int32(c))
			}
		}
		p.nz[r] = buf[start:len(buf):len(buf)]
	}
}

// fillFor indexes every row lambda loads that is not indexed yet, so rows
// whose traffic is all zero are never scanned. Concurrent callers serialize
// on the plan's lock for this step only.
func (p *LoadPlan) fillFor(lambda *traffic.Matrix) {
	if p.filled == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.f.T.Nodes()
	var rows []int
	for s, row := range lambda.L {
		for d, l := range row {
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if r := s*n + d; l != 0 && !p.filled[r] {
				p.filled[r] = true
				rows = append(rows, r)
			}
		}
	}
	p.index(rows)
}

// ChannelLoads returns gamma_c(R, Lambda) for every channel, equation (2).
func (p *LoadPlan) ChannelLoads(lambda *traffic.Matrix) []float64 {
	t := p.f.T
	n, nc := t.Nodes(), t.Chans()
	loads := make([]float64, nc)
	p.fillFor(lambda)
	x := p.f.X
	if p.trans == nil {
		for s, row := range lambda.L {
			for d, l := range row {
				//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
				if l == 0 {
					continue
				}
				r := s*n + d
				xr := x[r]
				for _, c := range p.nz[r] {
					loads[c] += l * xr[c]
				}
			}
		}
		return loads
	}
	// gamma_c = sum_{s,d} lambda[s][d] * X[d-s][c translated by -s]: row
	// rel(s, d) read in source 0's frame, each channel carried to s.
	for s, row := range lambda.L {
		tr := p.trans[s*nc : (s+1)*nc]
		rel := p.rel[s*n : (s+1)*n]
		for d, l := range row {
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if l == 0 {
				continue
			}
			r := rel[d]
			xr := x[r]
			for _, c := range p.nz[r] {
				loads[tr[c]] += l * xr[c]
			}
		}
	}
	return loads
}

// GammaMax returns the maximum channel load under lambda, equation (3).
func (p *LoadPlan) GammaMax(lambda *traffic.Matrix) float64 {
	var worst float64
	for _, l := range p.ChannelLoads(lambda) {
		if l > worst {
			worst = l
		}
	}
	return worst
}
