package eval

import (
	"context"

	"tcr/internal/par"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// LoadPlan is a read-only sparse view of a flow table for evaluating
// equation (2), gamma_c = sum_{s,d} lambda_sd * x_{rel(s,d)}(c), against
// many traffic matrices. A closed-form routing crosses few of a row's
// channels (at k=8 the mean nonzeros per row run from 5 for DOR to 136 for
// VAL, of 256), so the plan lists each row's nonzero channels once and every
// evaluation visits only those. Its frame maps each (s, d) pair to its flow
// row and each row's channels to s's; on vertex-transitive families that is
// the per-source channel translation and the RelNode table, which a dense
// evaluation would otherwise recompute through the group on every call.
//
// The nonzero terms are visited in ascending channel order within each
// (s, d) row and rows in (s, d) order: exactly the terms, in exactly the
// order, a dense scan that skips zero entries adds. Loads are therefore
// bit-for-bit those of the dense evaluation, whether one matrix is
// evaluated (ChannelLoads) or eight at once (MaxLoads).
//
// A plan stores int32 channel indices and reads values from the flow in
// place, so for every Table 1 flow at k = 4, 5 and 8 it is smaller than the
// flow table it indexes. It is safe for concurrent use; the flow must not
// change while a plan over it is in use. Cache memoizes one plan per cached
// flow, and plans on one topology share its frame.
type LoadPlan struct {
	f  *Flow
	fr *frame
	// idx[off[r]:off[r+1]] lists the channels with a nonzero entry in
	// f.X[r], in ascending order.
	off []int
	idx []int32
}

// frame is the part of a load plan that depends only on the topology.
type frame struct {
	n, nc int
	// trans[s*stride+c] is the channel that channel c of a flow row stands
	// for when source s reads the row: on vertex-transitive families c
	// translated from source 0's frame to s (stride nc); elsewhere, where
	// every pair has its own row, c itself (one identity block, stride 0).
	trans  []int32
	stride int
	// rel[s*n+d] is the flow row of the (s, d) commodity (RowOf).
	rel []int32
}

// newFrame builds t's plan frame.
func newFrame(t topo.Topology) *frame {
	n, nc := t.Nodes(), t.Chans()
	fr := &frame{n: n, nc: nc, rel: make([]int32, n*n)}
	if !t.VertexTransitive() {
		fr.trans = make([]int32, nc)
		for c := range fr.trans {
			fr.trans[c] = int32(c)
		}
		for r := range fr.rel {
			fr.rel[r] = int32(r)
		}
		return fr
	}
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
	fr.trans, fr.stride = make([]int32, n*nc), nc
	for s, shift := range shifts {
		tr := fr.trans[s*nc : (s+1)*nc]
		for v := 0; v < n; v++ {
			sv := int(tg.ApplyNode(shift, topo.Node(v))) * deg
			for q := 0; q < deg; q++ {
				tr[from[v*deg+q]] = from[sv+q]
			}
		}
		for d := 0; d < n; d++ {
			fr.rel[s*n+d] = int32(t.RelNode(topo.Node(s), topo.Node(d)))
		}
	}
	return fr
}

// Plan builds the flow's load plan.
func (f *Flow) Plan() *LoadPlan { return f.planOn(newFrame(f.T)) }

// planOn builds the flow's load plan over fr, which must be f.T's frame.
func (f *Flow) planOn(fr *frame) *LoadPlan {
	p := &LoadPlan{f: f, fr: fr, off: make([]int, len(f.X)+1)}
	total := 0
	for r, row := range f.X {
		for _, v := range row {
			//lint:ignore floatcmp sparsity: channels a path never crosses stay exactly 0
			if v != 0 {
				total++
			}
		}
		p.off[r+1] = total
	}
	p.idx = make([]int32, 0, total)
	for _, row := range f.X {
		for c, v := range row {
			//lint:ignore floatcmp sparsity: channels a path never crosses stay exactly 0
			if v != 0 {
				p.idx = append(p.idx, int32(c))
			}
		}
	}
	return p
}

// ChannelLoads returns gamma_c(R, Lambda) for every channel, equation (2).
func (p *LoadPlan) ChannelLoads(lambda *traffic.Matrix) []float64 {
	fr := p.fr
	n, nc := fr.n, fr.nc
	loads := make([]float64, nc)
	x := p.f.X
	// gamma_c = sum_{s,d} lambda[s][d] * X[rel(s,d)][c carried to s]: on
	// vertex-transitive families row rel(s, d) is read in source 0's frame.
	for s, row := range lambda.L {
		tr := fr.trans[s*fr.stride : s*fr.stride+nc]
		rel := fr.rel[s*n : (s+1)*n]
		for d, l := range row {
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if l == 0 {
				continue
			}
			r := rel[d]
			xr := x[r]
			for _, c := range p.idx[p.off[r]:p.off[r+1]] {
				loads[tr[c]] += l * xr[c]
			}
		}
	}
	return loads
}

// GammaMax returns the maximum channel load under lambda, equation (3).
func (p *LoadPlan) GammaMax(lambda *traffic.Matrix) float64 {
	_, g := maxLoad(p.ChannelLoads(lambda))
	return g
}

// maxLoad returns the most loaded channel and its load (channel 0 and 0
// when nothing is loaded).
func maxLoad(loads []float64) (int, float64) {
	worstC, worst := 0, 0.0
	for c, l := range loads {
		if l > worst {
			worst, worstC = l, c
		}
	}
	return worstC, worst
}

// lanes is the width of the multi-sample kernel: the matrices one pass over
// the plan evaluates.
const lanes = 8

// MaxLoads returns every matrix's maximum channel load (equation (3)) and
// the lowest channel carrying it (channel 0 when nothing is loaded), as
// GammaMax and an argmax over ChannelLoads would, bit for bit. The matrices
// are evaluated in batches of eight, one pass over the plan per batch, and
// the batches run on at most workers goroutines.
func (p *LoadPlan) MaxLoads(ctx context.Context, lams []*traffic.Matrix, workers int) ([]float64, []int, error) {
	gammas := make([]float64, len(lams))
	argmax := make([]int, len(lams))
	batches := (len(lams) + lanes - 1) / lanes
	err := par.Do(ctx, batches, workers, func(b int) error {
		lo := b * lanes
		hi := min(lo+lanes, len(lams))
		if hi-lo == 1 {
			argmax[lo], gammas[lo] = maxLoad(p.ChannelLoads(lams[lo]))
			return nil
		}
		loads := p.batchLoads(lams[lo:hi])
		g, a := gammas[lo:hi], argmax[lo:hi]
		for c := range loads {
			o := &loads[c]
			for k := range g {
				if o[k] > g[k] {
					g[k], a[k] = o[k], c
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return gammas, argmax, nil
}

// batchLoads returns the channel loads of up to eight matrices, lane k of
// each channel holding lams[k]'s. Each (s, d) row's channels and their
// translation are read once for all lanes. Lane k adds exactly the terms
// ChannelLoads adds for lams[k], in the same order, plus l*x = ±0 terms for
// rows lams[k] leaves empty but another lane loads; flows are finite, so
// those leave every load's bits unchanged. Rows no lane loads are skipped.
func (p *LoadPlan) batchLoads(lams []*traffic.Matrix) [][lanes]float64 {
	fr := p.fr
	n, nc := fr.n, fr.nc
	loads := make([][lanes]float64, nc)
	row := make([][lanes]float64, n) // lane k of row[d] is lams[k].L[s][d]
	x := p.f.X
	for s := 0; s < n; s++ {
		for k, lam := range lams {
			for d, l := range lam.L[s][:n] {
				row[d][k] = l
			}
		}
		tr := fr.trans[s*fr.stride : s*fr.stride+nc]
		rel := fr.rel[s*n : (s+1)*n]
		for d := range row {
			l0, l1, l2, l3, l4, l5, l6, l7 := row[d][0], row[d][1], row[d][2], row[d][3], row[d][4], row[d][5], row[d][6], row[d][7]
			//lint:ignore floatcmp sparsity skip: entries never written stay exactly 0
			if l0 == 0 && l1 == 0 && l2 == 0 && l3 == 0 && l4 == 0 && l5 == 0 && l6 == 0 && l7 == 0 {
				continue
			}
			r := rel[d]
			xr := x[r]
			for _, c := range p.idx[p.off[r]:p.off[r+1]] {
				v := xr[c]
				o := &loads[tr[c]]
				o[0] += l0 * v
				o[1] += l1 * v
				o[2] += l2 * v
				o[3] += l3 * v
				o[4] += l4 * v
				o[5] += l5 * v
				o[6] += l6 * v
				o[7] += l7 * v
			}
		}
	}
	return loads
}
