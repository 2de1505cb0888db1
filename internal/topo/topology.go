package topo

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// This file defines the topology abstraction the rest of the module builds
// on: a Topology is any directed symmetric-channel interconnection graph,
// and an AutGroup is an explicit automorphism group acting on its nodes and
// channels. The Section 4 symmetry reduction — folding the O(N^2) commodity
// set onto canonical pair classes and expressing every pair's channel loads
// through an automorphism of the class representative — is implemented once,
// against these interfaces, and works for any registered family. The k-ary
// n-cube (cube.go) serves torus2d, through the Torus wrapper, and torus3d;
// the 2D mesh (Mesh) is the other implementation.
//
// Conventions shared by every family:
//
//   - Nodes are integers in [0, Nodes()).
//   - Every channel has unit bandwidth, a source node, and a port index:
//     PortChan(n, p) for p in [0, OutDeg(n)) enumerates n's outgoing
//     channels, and ChanPort inverts it. On the torus families port p
//     steps axis p/2, forward when p is even (the Dir constants in 2D); on
//     the mesh the port list is compacted per node (border nodes have
//     fewer ports).
//   - Every channel has a reverse: ReverseChan(c) is the oppositely
//     directed channel of the same physical link, so in-channels of a node
//     are exactly the reverses of its out-channels.

// Topology is an interconnection network with unit-bandwidth channels and
// an explicit automorphism group.
type Topology interface {
	// Family is the registered family name ("torus2d", "torus3d", "mesh").
	Family() string
	// Spec is the family-specific dimension string ("8", "4", "8x8");
	// Family() + ":" + Spec() round-trips through Parse.
	Spec() string
	// Nodes and Chans are the node and channel counts.
	Nodes() int
	Chans() int
	// MaxDeg is the maximum out-degree over all nodes; OutDeg the exact
	// out-degree of one node.
	MaxDeg() int
	OutDeg(n Node) int
	// PortChan returns the channel leaving n through port p (0 <= p <
	// OutDeg(n)); ChanPort returns a channel's port index at its source.
	PortChan(n Node, p int) Channel
	ChanPort(c Channel) int
	// ChanSrc and ChanDst are a channel's endpoint nodes.
	ChanSrc(c Channel) Node
	ChanDst(c Channel) Node
	// ReverseChan returns the oppositely directed channel of the same link.
	ReverseChan(c Channel) Channel
	// MinDist is the minimal hop count between two nodes; MeanMinDist its
	// average over all N^2 ordered pairs (self pairs contribute zero).
	MinDist(s, d Node) int
	MeanMinDist() float64
	// VertexTransitive reports whether the translation subgroup acts
	// transitively on nodes (true for the torus families, false for the
	// mesh). Vertex-transitive families support the per-source folding of
	// flow tables: RelNode and source-0 path tables.
	VertexTransitive() bool
	// RelNode returns the node whose offset from the origin equals the
	// offset of d from s. Valid only for vertex-transitive families.
	RelNode(s, d Node) Node
	// Group is the full automorphism group used for commodity folding.
	Group() AutGroup
	// TransGroup is the translation subgroup (trivial — identity only —
	// when the family is not vertex-transitive). Its channel-orbit
	// representatives are the separation oracle's work list: for the torus
	// families one channel per direction at the origin, for the mesh every
	// channel.
	TransGroup() AutGroup
}

// AutID indexes an element of an AutGroup. Encodings are group-private;
// callers treat IDs as opaque.
type AutID int

// PairClass is one orbit of ordered node pairs under a group: the class
// representative (Src, Dst), the orbit's weight, and the pairs' common
// minimal distance. Weight is the number of ordered pairs in the orbit
// divided by N; for the vertex-transitive groups it is an exact small
// integer (the per-source offset multiplicity of DESIGN.md Section 4).
type PairClass struct {
	Src, Dst Node
	Weight   float64
	MinDist  int
}

// AutGroup is an explicit automorphism group of a Topology, with the
// pair-folding machinery of the Section 4 symmetry reduction.
type AutGroup interface {
	// Size is the group order.
	Size() int
	// Identity returns the identity element.
	Identity() AutID
	// Elements enumerates the whole group (used by conformance tests and
	// small-group orbit computations).
	Elements() []AutID
	// ApplyNode and ApplyChan are the group action on nodes and channels.
	ApplyNode(a AutID, n Node) Node
	ApplyChan(a AutID, c Channel) Channel
	// Compose returns the element equivalent to applying first a, then b;
	// Inverse the group inverse.
	Compose(a, b AutID) AutID
	Inverse(a AutID) AutID
	// PairAut returns the pair class index of (s, d) and an automorphism
	// sigma with sigma(s) = Classes()[ci].Src and sigma(d) =
	// Classes()[ci].Dst. Self pairs return class -1 and the identity.
	PairAut(s, d Node) (int, AutID)
	// Classes enumerates the ordered-pair orbits in a fixed canonical
	// order; the class index of PairAut indexes this slice.
	Classes() []PairClass
	// ChanOrbitReps returns one representative channel per channel orbit,
	// in ascending channel order.
	ChanOrbitReps() []Channel
}

// parser reads a family's spec string into its node count, checked for
// overflow, and a constructor, so a node cap can reject a spec before any
// table is allocated.
type parser func(spec string) (nodes int, build func() Topology, err error)

// families is the family registry; Register runs from init functions, so no
// locking is needed once the program is up.
var families = map[string]parser{}

// RegisterFamily installs a topology family under its name. It is intended
// to be called from init functions; duplicate registration panics.
func RegisterFamily(name string, p parser) {
	if _, dup := families[name]; dup {
		//lint:ignore libpanic registration-time misuse guard, reachable only from init-time programming errors
		panic("topo: duplicate family " + name)
	}
	families[name] = p
}

// Families returns the registered family names, sorted.
func Families() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse builds a topology from a "family:spec" string — "torus2d:8",
// "torus3d:4", "mesh:8x8". The bare form "torus2d" style (no colon) is
// rejected: every family needs its dimensions. A spec whose node or channel
// count overflows an int is an error.
func Parse(s string) (Topology, error) { return ParseLimit(s, math.MaxInt) }

// ParseLimit is Parse with a node cap: a spec with more than maxNodes nodes
// is rejected before anything is built.
func ParseLimit(s string, maxNodes int) (Topology, error) {
	name, spec, ok := strings.Cut(s, ":")
	if !ok || name == "" || spec == "" {
		return nil, fmt.Errorf("topo: malformed topology %q (want family:spec, e.g. %q)", s, "torus2d:8")
	}
	p, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("topo: unknown family %q (have %s)", name, strings.Join(Families(), ", "))
	}
	n, build, err := p(spec)
	if err != nil {
		return nil, fmt.Errorf("topo: %s: %w", name, err)
	}
	if n > maxNodes {
		return nil, fmt.Errorf("topology %s has %d nodes (max %d)", s, n, maxNodes)
	}
	return build(), nil
}

// String renders a topology back to its canonical "family:spec" form.
func String(t Topology) string { return t.Family() + ":" + t.Spec() }

// genPairClasses computes the ordered-pair orbits of a small explicit group
// by exhaustive folding: every ordered pair maps to the lexicographically
// least image under the group, classes are enumerated in ascending
// (src, dst) representative order. It is the generic fallback for groups
// without a closed-form canonicalization (the mesh); the cube groups use
// their analytic cone form instead.
func genPairClasses(t Topology, g AutGroup) (classes []PairClass, pairClass []int, pairAut []AutID) {
	n := t.Nodes()
	pairClass = make([]int, n*n)
	pairAut = make([]AutID, n*n)
	repIdx := map[int]int{} // canonical s*n+d -> class index
	els := g.Elements()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			idx := s*n + d
			if s == d {
				pairClass[idx] = -1
				pairAut[idx] = g.Identity()
				continue
			}
			best, bestAut := -1, g.Identity()
			for _, a := range els {
				key := int(g.ApplyNode(a, Node(s)))*n + int(g.ApplyNode(a, Node(d)))
				if best < 0 || key < best {
					best, bestAut = key, a
				}
			}
			ci, seen := repIdx[best]
			if !seen {
				ci = len(classes)
				repIdx[best] = ci
				classes = append(classes, PairClass{
					Src:     Node(best / n),
					Dst:     Node(best % n),
					MinDist: t.MinDist(Node(s), Node(d)),
				})
			}
			classes[ci].Weight++
			pairClass[idx] = ci
			pairAut[idx] = bestAut
		}
	}
	// Re-enumerate in ascending representative order so the class order is
	// independent of the fold discovery order.
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := classes[order[i]], classes[order[j]]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	perm := make([]int, len(classes))
	sorted := make([]PairClass, len(classes))
	for newIdx, oldIdx := range order {
		perm[oldIdx] = newIdx
		sorted[newIdx] = classes[oldIdx]
	}
	for idx := range pairClass {
		if pairClass[idx] >= 0 {
			pairClass[idx] = perm[pairClass[idx]]
		}
	}
	nf := float64(n)
	for i := range sorted {
		sorted[i].Weight /= nf
	}
	return sorted, pairClass, pairAut
}

// genChanOrbitReps computes one representative per channel orbit of a small
// explicit group, in ascending channel order.
func genChanOrbitReps(t Topology, g AutGroup) []Channel {
	seen := make([]bool, t.Chans())
	var reps []Channel
	els := g.Elements()
	for c := 0; c < t.Chans(); c++ {
		if seen[c] {
			continue
		}
		reps = append(reps, Channel(c))
		for _, a := range els {
			seen[g.ApplyChan(a, Channel(c))] = true
		}
	}
	return reps
}
