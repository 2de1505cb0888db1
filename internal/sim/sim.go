// Package sim is a cycle-based, flit-level simulator for the module's
// interconnection networks with virtual-channel flow control. It backs two
// claims the paper makes outside its analytical model: that the ideal
// (edge-congestion) throughput bound is approached but not met by practical
// routers (Section 2.1 cites 60-75%), and that the studied routing
// algorithms have simple deadlock-free implementations with a handful of
// virtual channels per physical channel (Section 5.2).
//
// The router model is a canonical input-queued VC router: per-input virtual
// channels with credit-based backpressure, atomic VC allocation (a virtual
// channel is held by one packet from head to tail), and round-robin switch
// allocation granting one flit per output per cycle. Paths are source
// routed: the oblivious routing algorithm draws the entire path at
// injection, and a per-algorithm VCPolicy assigns each hop a virtual
// channel class so the channel-dependence graph stays acyclic — dateline
// rules for torus rings, ascending hop classes on other topologies.
//
// The router is degree-parameterized: every node carries one input buffer
// bank and one credit bank per port, sized by the topology's OutDeg, so
// mesh border routers are narrower than interior ones.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// VCPolicy assigns a virtual-channel class to every hop of a path. The
// returned slice has one entry per hop, each in [0, numClasses).
type VCPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Classes is the number of VC classes the policy needs.
	Classes() int
	// Assign labels each hop of the path with its VC class.
	Assign(t topo.Topology, p paths.Path) []int
}

// DatelinePolicy implements the classic two-VC ring deadlock avoidance: a
// packet uses class 0 in each dimension until it crosses that dimension's
// wrap-around (dateline) channel, class 1 after. Sufficient for
// dimension-order routing. Torus2d only.
type DatelinePolicy struct{}

// Name implements VCPolicy.
func (DatelinePolicy) Name() string { return "dateline" }

// Classes implements VCPolicy.
func (DatelinePolicy) Classes() int { return 2 }

// Assign implements VCPolicy.
func (DatelinePolicy) Assign(t topo.Topology, p paths.Path) []int {
	return assignNew(DatelinePolicy{}, t, p)
}

func (DatelinePolicy) assignTo(classes []int, t topo.Topology, p paths.Path) {
	assignDateline(classes, t.(*topo.Torus), p, 0)
}

// TurnDatelinePolicy implements the paper's scheme for two-turn paths
// (Section 5.2): the VC set is incremented after each Y-to-X turn (at most
// one on any two-turn path), and within a set the dateline rule breaks
// intra-ring cycles, for four classes total. DOR, IVAL and 2TURN paths are
// all covered. Torus2d only.
type TurnDatelinePolicy struct{}

// Name implements VCPolicy.
func (TurnDatelinePolicy) Name() string { return "turn+dateline" }

// Classes implements VCPolicy.
func (TurnDatelinePolicy) Classes() int { return 4 }

// Assign implements VCPolicy.
func (TurnDatelinePolicy) Assign(t topo.Topology, p paths.Path) []int {
	return assignNew(TurnDatelinePolicy{}, t, p)
}

func (TurnDatelinePolicy) assignTo(classes []int, t topo.Topology, p paths.Path) {
	assignDateline(classes, t.(*topo.Torus), p, 1)
}

// HopClassPolicy is the topology-agnostic fallback: hop i uses class i, so
// the class sequence strictly increases along every path and the channel
// dependence graph is trivially acyclic. It needs as many classes as the
// longest path the sampler can draw, which is why New sizes it from
// routing.Sampler.MaxLen; the VC cost is acceptable at the small scales
// non-torus2d simulations run at.
type HopClassPolicy struct {
	// NumClasses bounds path length; Assign panics if a path exceeds it.
	NumClasses int
}

// Name implements VCPolicy.
func (HopClassPolicy) Name() string { return "hop-class" }

// Classes implements VCPolicy.
func (p HopClassPolicy) Classes() int { return p.NumClasses }

// Assign implements VCPolicy.
func (p HopClassPolicy) Assign(t topo.Topology, path paths.Path) []int {
	return assignNew(p, t, path)
}

func (HopClassPolicy) assignTo(classes []int, _ topo.Topology, _ paths.Path) {
	for i := range classes {
		classes[i] = i
	}
}

// classWriter is implemented by the built-in policies: assignTo writes the
// hop classes of p into classes (len(classes) == p.Len()), so the simulator
// can label a packet's hops in its own storage without allocating.
type classWriter interface {
	assignTo(classes []int, t topo.Topology, p paths.Path)
}

// assignNew is the allocating Assign of a built-in policy.
func assignNew(w classWriter, t topo.Topology, p paths.Path) []int {
	classes := make([]int, len(p.Dirs))
	w.assignTo(classes, t, p)
	return classes
}

// assignDateline walks the path tracking the dateline bit (reset whenever
// the packet turns into a new dimension run) and, when turnBit is set, a
// set bit that flips once at the packet's "phase boundary": the first
// Y-to-X turn or the first direction reversal within a dimension. For
// two-turn paths this is exactly the paper's bump-after-Y-to-X rule; for
// the two-phase algorithms (VAL, IVAL, ROMM, RLB) it coincides with the
// phase change, giving each set a dimension-ordered, reversal-free prefix
// whose channel dependences are acyclic under the dateline rule. It writes
// one class per hop into classes.
func assignDateline(classes []int, t *topo.Torus, p paths.Path, turnBit int) {
	n := p.Src
	set := 0
	dateline := 0
	lastDir := [2]topo.Dir{-1, -1} // per-dimension direction seen so far
	for i, d := range p.Dirs {
		if i > 0 && d.IsX() != p.Dirs[i-1].IsX() {
			dateline = 0
		}
		if turnBit == 1 && set == 0 && i > 0 {
			yToX := d.IsX() && !p.Dirs[i-1].IsX()
			dim := 0
			if !d.IsX() {
				dim = 1
			}
			reversal := lastDir[dim] >= 0 && lastDir[dim] == d.Reverse()
			if yToX || reversal {
				set = 1
				dateline = 0
			}
		}
		if d.IsX() {
			lastDir[0] = d
		} else {
			lastDir[1] = d
		}
		classes[i] = set*2 + dateline
		// Crossing the wrap channel flips the dateline bit for the rest
		// of this dimension run.
		x, y := t.Coord(n)
		nxt := t.Neighbor(n, d)
		nx, ny := t.Coord(nxt)
		if d.IsX() {
			//lint:ignore dirliteral dateline VC assignment is defined on torus2d wrap channels
			if (d == topo.XPlus && nx < x) || (d == topo.XMinus && nx > x) {
				dateline = 1
			}
		} else {
			//lint:ignore dirliteral dateline VC assignment is defined on torus2d wrap channels
			if (d == topo.YPlus && ny < y) || (d == topo.YMinus && ny > y) {
				dateline = 1
			}
		}
		n = nxt
	}
}

// PolicyFor returns the conventional torus2d policy for an algorithm name:
// dateline-only for plain DOR, turn+dateline otherwise.
func PolicyFor(alg routing.Algorithm) VCPolicy {
	if alg.Name() == "DOR" || alg.Name() == "DOR-yx" {
		return DatelinePolicy{}
	}
	return TurnDatelinePolicy{}
}

// Default measurement windows used when Config.Warmup/Measure are zero.
const (
	DefaultWarmup  = 3000
	DefaultMeasure = 10000
)

// Config parameterizes a simulation.
type Config struct {
	K           int           // torus radix, used when Topo is nil
	Topo        topo.Topology // network to simulate; nil = k-ary 2-cube of radix K
	VCsPerClass int           // virtual channels per class (default 1)
	BufDepth    int           // flit buffer depth per VC (default 4)
	PacketFlits int           // flits per packet (default 4)
	Rate        float64       // offered load: flits per node per cycle (1.0 = full injection bandwidth)
	Seed        int64

	Alg     routing.Algorithm
	Policy  VCPolicy        // nil = PolicyFor(Alg) on a 2D torus, hop classes otherwise
	Pattern *traffic.Matrix // destination distribution per source; nil = uniform

	// Warmup and Measure are the pre-measurement and measurement window
	// lengths in cycles used by Simulate and FindSaturation; zero selects
	// DefaultWarmup/DefaultMeasure.
	Warmup, Measure int
	// Workers bounds FindSaturation's sweep concurrency: each rate is an
	// independent simulation with its own RNG seeded from Seed, so the
	// sweep result is identical for every worker count. 0 uses all cores;
	// 1 runs the sweep sequentially.
	Workers int
}

func (c Config) warmup() int {
	if c.Warmup > 0 {
		return c.Warmup
	}
	return DefaultWarmup
}

func (c Config) measure() int {
	if c.Measure > 0 {
		return c.Measure
	}
	return DefaultMeasure
}

// Stats summarizes a measurement window.
type Stats struct {
	Cycles int
	// InjectedFlits / EjectedFlits count flits entering and leaving the
	// network during the measurement window.
	InjectedFlits, EjectedFlits int
	// Throughput is accepted flits per node per cycle.
	Throughput float64
	// AvgLatency is the mean packet latency (injection-queue entry to tail
	// ejection) over packets ejected in the window.
	AvgLatency float64
	// PacketsEjected is the latency sample count.
	PacketsEjected int
	// Deadlocked reports that the watchdog saw no forward progress for a
	// long stretch while flits were buffered.
	Deadlocked bool
}

// packet is an in-flight packet with its precomputed route. Packets and
// their vcs are carved from the Sim's slabs (see newPacket).
type packet struct {
	dirs     []topo.Dir // per-hop output port at the node reached so far
	vcs      []int      // concrete VC per hop
	flits    int
	injected int // cycle the packet entered the source queue
}

// vcState is one virtual channel of one input port. Its flits sit in a
// ring FIFO whose capacity is the buffer depth: credit flow control never
// lets the upstream router send into a full buffer.
type vcState struct {
	ring []flitRef // the FIFO is ring[head], ring[head+1], ... (wrapping), n flits
	head int
	n    int
	// owner is the packet currently allocated this VC (nil when idle).
	// Allocation is atomic head-to-tail.
	owner *packet
}

// len returns the number of buffered flits.
func (vc *vcState) len() int { return vc.n }

// at returns the i-th buffered flit, the head being 0.
func (vc *vcState) at(i int) flitRef {
	j := vc.head + i
	if j >= len(vc.ring) {
		j -= len(vc.ring)
	}
	return vc.ring[j]
}

// push appends a flit at the tail.
func (vc *vcState) push(fr flitRef) {
	j := vc.head + vc.n
	if j >= len(vc.ring) {
		j -= len(vc.ring)
	}
	vc.ring[j] = fr
	vc.n++
}

// pop removes and returns the head flit, clearing its slot so the ring
// keeps no departed packet reachable.
func (vc *vcState) pop() flitRef {
	fr := vc.ring[vc.head]
	vc.ring[vc.head] = flitRef{}
	vc.head++
	if vc.head == len(vc.ring) {
		vc.head = 0
	}
	vc.n--
	return fr
}

type flitRef struct {
	pkt  *packet
	hop  int32 // hops completed so far (route index at the current node)
	last bool  // tail flit
}

// router is one node's state, sized by the node's out-degree.
type router struct {
	// in[p][vc] are input buffers for flits arriving over the reverse of
	// the node's outgoing channel at port p (injection is modeled as a
	// source queue, not an input port).
	in [][]vcState
	// credits[p][vc]: free downstream slots for the output at port p.
	credits [][]int
	// down[p] is the input bank the output at port p feeds: the
	// neighbor's in[revPort].
	down [][]vcState
	// occ has one bit per input VC, set while the VC holds a flit: port p
	// owns words occ[p*occWords : (p+1)*occWords], VC v is bit v%64 of the
	// port's word v/64. busy counts the set bits.
	occ  []uint64
	busy int
	// Source queue of packets awaiting injection: srcQueue[srcHead:] in
	// order, the head possibly partially injected (srcSent flits sent).
	srcQueue []*packet
	srcHead  int
	srcSent  int
	// rrOut[p] is the round-robin pointer of output p; rrOut[OutDeg] is
	// the ejection port's.
	rrOut []int
}

// setOcc and clearOcc mark input VC v of port p occupied or empty.
func (r *router) setOcc(p, v, occWords int) {
	r.occ[p*occWords+v>>6] |= 1 << (v & 63)
	r.busy++
}

func (r *router) clearOcc(p, v, occWords int) {
	r.occ[p*occWords+v>>6] &^= 1 << (v & 63)
	r.busy--
}

// popSrc removes the source queue's head. The queue's backing array is
// reused: it rewinds when the queue drains, and the live tail is moved to
// the front once the consumed prefix is at least half the slice.
func (r *router) popSrc() {
	r.srcQueue[r.srcHead] = nil
	r.srcHead++
	switch n := len(r.srcQueue); {
	case r.srcHead == n:
		r.srcQueue = r.srcQueue[:0]
		r.srcHead = 0
	case r.srcHead >= srcCompactMin && 2*r.srcHead >= n:
		live := copy(r.srcQueue, r.srcQueue[r.srcHead:])
		clear(r.srcQueue[live:n])
		r.srcQueue = r.srcQueue[:live]
		r.srcHead = 0
	}
}

// srcCompactMin is the consumed-prefix length below which popSrc does not
// bother compacting a source queue.
const srcCompactMin = 32

// network is the part of a simulation fixed by its topology, routing,
// policy and traffic pattern. It is read-only once built, so
// FindSaturation builds one per sweep and shares it across the sweep's
// concurrent rate points.
type network struct {
	base    Config // the configuration with defaults applied; Rate is per Sim
	t       topo.Topology
	sampler *routing.Sampler
	policy  VCPolicy
	// writer is policy's allocation-free form when it is a built-in
	// policy, nil otherwise.
	writer   classWriter
	nVCs     int // total VCs per input port
	occWords int // occupancy words per input port
	// Per-node link tables, precomputed so the per-flit hot path does no
	// interface calls: port p of node n reaches neighbor[n][p], landing in
	// its input bank at index revPort[n][p] (the port of the reverse
	// channel at the neighbor, which is also the neighbor's credit index
	// for traffic flowing back to n).
	neighbor [][]topo.Node
	revPort  [][]int
	destCum  [][]float64 // per-source destination CDF
}

// Sim is a running simulation.
type Sim struct {
	*network
	cfg     Config
	rng     *rand.Rand
	pPacket float64 // per-node, per-cycle packet injection probability
	routers []router

	// Per-cycle scratch, reused every cycle: reqs[out] collects one
	// router's requests for output out (index OutDeg is ejection), and
	// moves the cycle's grants.
	reqs  [][]req
	moves []move
	// Slabs that injected packets and their per-hop VC indices are carved
	// from; a new chunk is allocated only when one runs out.
	pktSlab []packet
	vcSlab  []int

	queued   int // packets in source queues
	buffered int // flits in input VCs

	cycle        int
	measureStart int
	injFlits     int
	ejFlits      int
	latencySum   int64
	ejPackets    int
	idleCycles   int
	deadlocked   bool
	measuring    bool
}

// Slab chunk lengths for packets and per-hop VC indices.
const (
	pktSlabLen = 256
	vcSlabLen  = 4096
)

// New builds a simulator. Configuration is external input (CLI flags,
// sweep scripts), so nonsensical values are reported as errors rather than
// panics.
func New(cfg Config) (*Sim, error) {
	nw, err := newNetwork(cfg)
	if err != nil {
		return nil, err
	}
	return nw.newSim(cfg.Rate)
}

// newNetwork validates cfg apart from its Rate, applies the defaults and
// builds the read-only tables.
func newNetwork(cfg Config) (*network, error) {
	t := cfg.Topo
	if t == nil {
		if cfg.K < 2 {
			return nil, fmt.Errorf("sim: radix %d < 2", cfg.K)
		}
		t = topo.NewTorus(cfg.K)
	}
	switch {
	case cfg.VCsPerClass < 0:
		return nil, fmt.Errorf("sim: negative VCs per class %d", cfg.VCsPerClass)
	case cfg.BufDepth < 0:
		return nil, fmt.Errorf("sim: negative buffer depth %d", cfg.BufDepth)
	case cfg.PacketFlits < 0:
		return nil, fmt.Errorf("sim: negative packet length %d", cfg.PacketFlits)
	}
	if cfg.VCsPerClass == 0 {
		cfg.VCsPerClass = 1
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 4
	}
	if cfg.PacketFlits == 0 {
		cfg.PacketFlits = 4
	}
	if cfg.Alg == nil {
		return nil, fmt.Errorf("sim: routing algorithm required")
	}
	sampler := routing.NewSampler(t, cfg.Alg)
	policy := cfg.Policy
	if policy == nil {
		if _, isTorus := t.(*topo.Torus); isTorus {
			policy = PolicyFor(cfg.Alg)
		} else {
			classes := sampler.MaxLen()
			if classes < 1 {
				classes = 1
			}
			policy = HopClassPolicy{NumClasses: classes}
		}
	}
	pattern := cfg.Pattern
	if pattern == nil {
		pattern = traffic.Uniform(t.Nodes())
	}
	if pattern.N != t.Nodes() {
		return nil, fmt.Errorf("sim: pattern size %d != network size %d", pattern.N, t.Nodes())
	}
	nVCs := policy.Classes() * cfg.VCsPerClass
	nw := &network{
		base:     cfg,
		t:        t,
		sampler:  sampler,
		policy:   policy,
		nVCs:     nVCs,
		occWords: (nVCs + 63) / 64,
	}
	nw.writer, _ = policy.(classWriter)
	nNodes := t.Nodes()
	nw.neighbor = make([][]topo.Node, nNodes)
	nw.revPort = make([][]int, nNodes)
	for n := 0; n < nNodes; n++ {
		deg := t.OutDeg(topo.Node(n))
		nw.neighbor[n] = make([]topo.Node, deg)
		nw.revPort[n] = make([]int, deg)
		for p := 0; p < deg; p++ {
			c := t.PortChan(topo.Node(n), p)
			nw.neighbor[n][p] = t.ChanDst(c)
			nw.revPort[n][p] = t.ChanPort(t.ReverseChan(c))
		}
	}
	// Destination CDFs for injection.
	nw.destCum = make([][]float64, nNodes)
	for src := 0; src < nNodes; src++ {
		cum := make([]float64, nNodes)
		var acc float64
		for d := 0; d < nNodes; d++ {
			acc += pattern.L[src][d]
			cum[d] = acc
		}
		nw.destCum[src] = cum
	}
	return nw, nil
}

// newSim builds an empty network's simulator at one offered rate. The
// per-port state (VCs, credits, flit rings, occupancy words) is carved
// from one backing array each.
func (nw *network) newSim(rate float64) (*Sim, error) {
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("sim: non-finite injection rate %g", rate)
	}
	if rate < 0 {
		return nil, fmt.Errorf("sim: negative injection rate %g", rate)
	}
	cfg := nw.base
	cfg.Rate = rate
	s := &Sim{
		network: nw,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pPacket: rate / float64(cfg.PacketFlits),
		reqs:    make([][]req, nw.t.MaxDeg()+1),
	}
	nNodes := nw.t.Nodes()
	ports := 0
	for n := 0; n < nNodes; n++ {
		ports += len(nw.neighbor[n])
	}
	depth := cfg.BufDepth
	inBank := make([][]vcState, ports)
	downBank := make([][]vcState, ports)
	creditBank := make([][]int, ports)
	vcs := make([]vcState, ports*nw.nVCs)
	credits := make([]int, ports*nw.nVCs)
	rings := make([]flitRef, ports*nw.nVCs*depth)
	occ := make([]uint64, ports*nw.occWords)
	rr := make([]int, ports+nNodes)
	for i := range vcs {
		vcs[i].ring = rings[i*depth : (i+1)*depth : (i+1)*depth]
		credits[i] = depth
	}
	for i := range inBank {
		inBank[i] = vcs[i*nw.nVCs : (i+1)*nw.nVCs : (i+1)*nw.nVCs]
		creditBank[i] = credits[i*nw.nVCs : (i+1)*nw.nVCs : (i+1)*nw.nVCs]
	}
	s.routers = make([]router, nNodes)
	port := 0
	for n := range s.routers {
		deg := len(nw.neighbor[n])
		s.routers[n] = router{
			in:      inBank[port : port+deg : port+deg],
			credits: creditBank[port : port+deg : port+deg],
			occ:     occ[port*nw.occWords : (port+deg)*nw.occWords : (port+deg)*nw.occWords],
			rrOut:   rr[port+n : port+n+deg+1 : port+n+deg+1],
		}
		port += deg
	}
	port = 0
	for n := range s.routers {
		deg := len(nw.neighbor[n])
		for p := 0; p < deg; p++ {
			downBank[port+p] = s.routers[nw.neighbor[n][p]].in[nw.revPort[n][p]]
		}
		s.routers[n].down = downBank[port : port+deg : port+deg]
		port += deg
	}
	return s, nil
}
