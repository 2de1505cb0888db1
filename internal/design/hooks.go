package design

import (
	"tcr/internal/lp"
	"tcr/internal/topo"
)

// This file exports read-only views of a FlowLP's formulation so that LP-level
// benchmarks and equivalence tests (internal/lp's external test package) can
// rebuild the exact design LPs — base model plus adversarial permutation cuts
// — against solvers they configure themselves. The design loops proper keep
// using the unexported state directly.

// Model returns the base LP model (flow conservation plus the optional
// locality row). The model is solver-independent: callers may construct any
// number of lp.Solvers from it.
func (p *FlowLP) Model() *lp.Model { return p.model }

// WVar returns the max-channel-load variable the design objective minimizes.
func (p *FlowLP) WVar() lp.VarID { return p.wVar }

// LocalityRow returns the locality budget row and whether the LP was built
// with one.
func (p *FlowLP) LocalityRow() (lp.RowID, bool) { return p.hRow, p.hRow >= 0 }

// PermCutTerms builds the terms of the load cut gamma_c(R, perm) <= bound
// for a permutation traffic pattern: the per-pair load variables on channel
// c plus the -bound term. The cut itself is terms <= 0.
func (p *FlowLP) PermCutTerms(c topo.Channel, perm []int, bound lp.VarID) []lp.Term {
	terms := make([]lp.Term, 0, p.n+1)
	for s, d := range perm {
		if v := p.pairLoadVar(s, d, c); v >= 0 {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
	}
	return append(terms, lp.Term{Var: bound, Coef: -1})
}
