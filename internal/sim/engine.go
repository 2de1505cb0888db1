package sim

import (
	"context"
	"math/bits"
	"sort"

	"tcr/internal/paths"
	"tcr/internal/topo"
)

// move is a granted flit transfer, computed in the allocation phase and
// applied afterwards so that all decisions within a cycle observe the same
// state.
type move struct {
	node topo.Node
	// srcPort < 0 means the node's injection queue, otherwise the input
	// port whose VC srcVC holds the flit.
	srcPort int
	srcVC   int
	// eject indicates delivery at this node; otherwise the flit leaves
	// through outPort into the neighbor's input VC dstVC.
	eject   bool
	outPort int
	dstVC   int
}

// Run advances the simulation by the given number of cycles; statistics
// accumulate only after StartMeasurement.
func (s *Sim) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		s.step()
	}
}

// ctxCheckInterval is how many cycles RunCtx advances between cancellation
// checks; coarse enough that the check never shows up in profiles.
const ctxCheckInterval = 1024

// RunCtx is Run under a cancellation context, checked every
// ctxCheckInterval cycles. The simulation stops where the check fired and
// remains valid (it can be resumed), but its window statistics are
// incomplete.
func (s *Sim) RunCtx(ctx context.Context, cycles int) error {
	for i := 0; i < cycles; i++ {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.step()
	}
	return nil
}

// Simulate builds a simulator from cfg, runs its warmup window, then its
// measurement window, and returns the stats.
func Simulate(ctx context.Context, cfg Config) (Stats, error) {
	nw, err := newNetwork(cfg)
	if err != nil {
		return Stats{}, err
	}
	return nw.simulate(ctx, cfg.Rate)
}

// simulate is Simulate on a prebuilt network at one offered rate.
func (nw *network) simulate(ctx context.Context, rate float64) (Stats, error) {
	s, err := nw.newSim(rate)
	if err != nil {
		return Stats{}, err
	}
	if err := s.RunCtx(ctx, nw.base.warmup()); err != nil {
		return Stats{}, err
	}
	s.StartMeasurement()
	if err := s.RunCtx(ctx, nw.base.measure()); err != nil {
		return Stats{}, err
	}
	return s.Stats(), nil
}

// StartMeasurement begins the statistics window (call after warmup).
func (s *Sim) StartMeasurement() {
	s.measuring = true
	s.injFlits = 0
	s.ejFlits = 0
	s.latencySum = 0
	s.ejPackets = 0
	s.measureStart = s.cycle
}

// Stats returns the measurement-window statistics.
func (s *Sim) Stats() Stats {
	cycles := s.cycle - s.measureStart
	st := Stats{
		Cycles:         cycles,
		InjectedFlits:  s.injFlits,
		EjectedFlits:   s.ejFlits,
		PacketsEjected: s.ejPackets,
		Deadlocked:     s.deadlocked,
	}
	if cycles > 0 {
		st.Throughput = float64(s.ejFlits) / float64(cycles) / float64(s.t.Nodes())
	}
	if s.ejPackets > 0 {
		st.AvgLatency = float64(s.latencySum) / float64(s.ejPackets)
	}
	return st
}

// step advances one cycle: inject new packets, allocate, move flits, and
// feed the deadlock watchdog.
func (s *Sim) step() {
	s.inject()
	s.allocate()
	s.apply()
	if len(s.moves) == 0 && s.queued+s.buffered > 0 {
		s.idleCycles++
		if s.idleCycles > 1000 {
			s.deadlocked = true
		}
	} else {
		s.idleCycles = 0
	}
	s.cycle++
}

// inject generates new packets per the Bernoulli process and pattern.
func (s *Sim) inject() {
	for n := range s.routers {
		if s.rng.Float64() >= s.pPacket {
			continue
		}
		dst := s.drawDest(n)
		pkt := s.newPacket(s.sampler.Sample(s.rng, topo.Node(n), dst))
		r := &s.routers[n]
		r.srcQueue = append(r.srcQueue, pkt)
		s.queued++
		if s.measuring {
			s.injFlits += s.cfg.PacketFlits
		}
	}
}

// newPacket carves a packet and its per-hop VC indices from the slabs. The
// policy's class labels map to concrete VCs with a random sub-channel per
// packet when VCsPerClass > 1. A built-in policy writes its classes
// straight into the packet's VC slice; a custom policy's Assign result is
// copied, never written, since the policy may share it.
func (s *Sim) newPacket(path paths.Path) *packet {
	if len(s.pktSlab) == 0 {
		s.pktSlab = make([]packet, pktSlabLen)
	}
	pkt := &s.pktSlab[0]
	s.pktSlab = s.pktSlab[1:]
	h := len(path.Dirs)
	if len(s.vcSlab) < h {
		s.vcSlab = make([]int, max(vcSlabLen, h))
	}
	vcs := s.vcSlab[:h:h]
	s.vcSlab = s.vcSlab[h:]
	if s.writer != nil {
		s.writer.assignTo(vcs, s.t, path)
	} else {
		copy(vcs, s.policy.Assign(s.t, path))
	}
	if per := s.cfg.VCsPerClass; per > 1 {
		sub := s.rng.Intn(per)
		for i, c := range vcs {
			vcs[i] = c*per + sub
		}
	}
	*pkt = packet{dirs: path.Dirs, vcs: vcs, flits: s.cfg.PacketFlits, injected: s.cycle}
	return pkt
}

// drawDest samples a destination from the source's traffic row.
func (s *Sim) drawDest(src int) topo.Node {
	cum := s.destCum[src]
	u := s.rng.Float64() * cum[len(cum)-1]
	i := sort.SearchFloat64s(cum, u)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return topo.Node(i)
}

// req is one input's request for an output in switch allocation: the
// head flit of input VC vc at port (port < 0 for the injection queue),
// bound for downstream VC dstVC.
type req struct {
	port, vc, dstVC int32
}

// allocate performs, per node, VC allocation and round-robin switch
// allocation, leaving the cycle's granted moves in s.moves. Only routers
// holding a flit or a queued packet are visited, and within one only its
// occupied input VCs, in ascending (port, VC) order; an idle router makes
// no request, so skipping it leaves its round-robin pointers as they are.
func (s *Sim) allocate() {
	moves := s.moves[:0]
	// Requests per output: indices 0..deg-1 are the node's ports, index
	// deg is ejection. The scratch is shared across nodes, sized by the
	// widest router, and truncated per node.
	reqs := s.reqs
	for n := range s.routers {
		r := &s.routers[n]
		if r.busy == 0 && r.srcHead == len(r.srcQueue) {
			continue
		}
		deg := len(r.in)
		for out := 0; out <= deg; out++ {
			reqs[out] = reqs[out][:0]
		}

		// Buffered input VCs.
		for p := 0; p < deg; p++ {
			for w, word := range r.occ[p*s.occWords : (p+1)*s.occWords] {
				for ; word != 0; word &= word - 1 {
					v := w<<6 | bits.TrailingZeros64(word)
					fr := r.in[p][v].at(0)
					if int(fr.hop) >= len(fr.pkt.dirs) {
						reqs[deg] = append(reqs[deg], req{port: int32(p), vc: int32(v)})
						continue
					}
					out := int(fr.pkt.dirs[fr.hop])
					dstVC := fr.pkt.vcs[fr.hop]
					if r.ready(out, dstVC, fr.pkt) {
						reqs[out] = append(reqs[out], req{port: int32(p), vc: int32(v), dstVC: int32(dstVC)})
					}
				}
			}
		}
		// Injection queue head.
		if r.srcHead < len(r.srcQueue) {
			pkt := r.srcQueue[r.srcHead]
			if len(pkt.dirs) == 0 {
				reqs[deg] = append(reqs[deg], req{port: -1})
			} else if out := int(pkt.dirs[0]); r.ready(out, pkt.vcs[0], pkt) {
				reqs[out] = append(reqs[out], req{port: -1, dstVC: int32(pkt.vcs[0])})
			}
		}

		// Grant one flit per output, round-robin over requesters.
		for out := 0; out <= deg; out++ {
			cands := reqs[out]
			if len(cands) == 0 {
				continue
			}
			pick := cands[r.rrOut[out]%len(cands)]
			r.rrOut[out]++
			moves = append(moves, move{node: topo.Node(n), srcPort: int(pick.port), srcVC: int(pick.vc),
				eject: out == deg, outPort: out, dstVC: int(pick.dstVC)})
		}
	}
	s.moves = moves
}

// ready checks credits and VC ownership at the input buffer a flit of pkt
// leaving through output out would land in: the VC must be free or already
// held by this packet, and a buffer slot must be available.
func (r *router) ready(out, dstVC int, pkt *packet) bool {
	if r.credits[out][dstVC] <= 0 {
		return false
	}
	owner := r.down[out][dstVC].owner
	return owner == nil || owner == pkt
}

// apply commits the cycle's moves: dequeue, transfer, credit return, and
// ejection accounting. A flit sent through port `out` lands at the
// neighbor's input port revPort[n][out]; conversely, a flit dequeued from
// input port p came from neighbor[n][p], whose credit counter for the
// channel toward us is indexed by revPort[n][p].
func (s *Sim) apply() {
	for _, mv := range s.moves {
		r := &s.routers[mv.node]
		var fr flitRef
		if mv.srcPort < 0 {
			pkt := r.srcQueue[r.srcHead]
			r.srcSent++
			fr = flitRef{pkt: pkt, hop: 0, last: r.srcSent == pkt.flits}
			if fr.last {
				r.popSrc()
				r.srcSent = 0
				s.queued--
			}
		} else {
			vc := &r.in[mv.srcPort][mv.srcVC]
			fr = vc.pop()
			s.buffered--
			if vc.n == 0 {
				r.clearOcc(mv.srcPort, mv.srcVC, s.occWords)
			}
			if fr.last {
				vc.owner = nil
			}
			up := s.neighbor[mv.node][mv.srcPort]
			s.routers[up].credits[s.revPort[mv.node][mv.srcPort]][mv.srcVC]++
		}

		if mv.eject {
			if s.measuring {
				s.ejFlits++
				if fr.last {
					s.latencySum += int64(s.cycle - fr.pkt.injected)
					s.ejPackets++
				}
			}
			continue
		}

		dst := &r.down[mv.outPort][mv.dstVC]
		if dst.owner == nil {
			dst.owner = fr.pkt
		}
		fr.hop++
		if dst.n == 0 {
			s.routers[s.neighbor[mv.node][mv.outPort]].setOcc(s.revPort[mv.node][mv.outPort], mv.dstVC, s.occWords)
		}
		dst.push(fr)
		s.buffered++
		r.credits[mv.outPort][mv.dstVC]--
	}
}
