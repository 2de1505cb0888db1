package sim

import (
	"testing"

	"tcr/internal/routing"
)

// TestCreditConservation: at any instant, a channel's credits at the
// upstream router plus the occupancy of the downstream input buffer must
// equal the buffer depth — credits may never be minted or lost.
func TestCreditConservation(t *testing.T) {
	mesh := mustParse(t, "mesh:3x3")
	for _, cfg := range []Config{
		{K: 4, Rate: 0.7, Seed: 31, Alg: routing.IVAL{}, BufDepth: 4},
		{Topo: mesh, Rate: 0.5, Seed: 31, Alg: minTable(t, mesh), BufDepth: 4},
	} {
		s := mustNew(t, cfg)
		for step := 0; step < 2000; step++ {
			s.step()
			if step%50 != 0 {
				continue
			}
			for n := 0; n < s.t.Nodes(); n++ {
				up := &s.routers[n]
				for p := range up.credits {
					down := &s.routers[s.neighbor[n][p]]
					in := s.revPort[n][p]
					for v := 0; v < s.nVCs; v++ {
						total := up.credits[p][v] + down.in[in][v].len()
						if total != s.cfg.BufDepth {
							t.Fatalf("cycle %d node %d port %d vc %d: credits %d + occupancy %d != depth %d",
								step, n, p, v, up.credits[p][v], down.in[in][v].len(), s.cfg.BufDepth)
						}
					}
				}
			}
		}
	}
}

// TestVCAtomicity: a virtual channel buffer never interleaves flits of two
// packets before the first packet's tail.
func TestVCAtomicity(t *testing.T) {
	s := mustNew(t, Config{K: 4, Rate: 0.8, Seed: 37, Alg: routing.VAL{}, BufDepth: 4})
	for step := 0; step < 2000; step++ {
		s.step()
		if step%25 != 0 {
			continue
		}
		for n := range s.routers {
			r := &s.routers[n]
			for d := range r.in {
				for v := range r.in[d] {
					vc := &r.in[d][v]
					// Scan: packet may only change right after a tail.
					for i := 1; i < vc.len(); i++ {
						if vc.at(i).pkt != vc.at(i-1).pkt && !vc.at(i-1).last {
							t.Fatalf("cycle %d: interleaved packets in node %d port %d vc %d",
								step, n, d, v)
						}
					}
					// Owner matches the head's packet.
					if vc.len() > 0 && vc.owner != vc.at(0).pkt {
						t.Fatalf("cycle %d: owner mismatch at node %d", step, n)
					}
				}
			}
		}
	}
}

// TestHopProgression: flits buffered at a node always have a hop index
// consistent with a real route position (0..len(dirs)).
func TestHopProgression(t *testing.T) {
	s := mustNew(t, Config{K: 5, Rate: 0.6, Seed: 41, Alg: routing.ROMM{}})
	for step := 0; step < 1500; step++ {
		s.step()
	}
	for n := range s.routers {
		r := &s.routers[n]
		for d := range r.in {
			for v := range r.in[d] {
				vc := &r.in[d][v]
				for i := 0; i < vc.len(); i++ {
					fr := vc.at(i)
					if fr.hop < 1 || int(fr.hop) > len(fr.pkt.dirs) {
						t.Fatalf("flit hop %d outside route length %d", fr.hop, len(fr.pkt.dirs))
					}
				}
			}
		}
	}
}

// TestEjectionBandwidth: no node ever delivers more than one flit per cycle
// (unit ejection bandwidth, Section 2.1's node model).
func TestEjectionBandwidth(t *testing.T) {
	s := mustNew(t, Config{K: 4, Rate: 1.0, Seed: 43, Alg: routing.DOR{}})
	s.StartMeasurement()
	cycles := 3000
	prev := 0
	for i := 0; i < cycles; i++ {
		s.step()
		cur := s.ejFlits
		if cur-prev > s.t.Nodes() {
			t.Fatalf("cycle %d: %d flits ejected network-wide (> N=%d)", i, cur-prev, s.t.Nodes())
		}
		prev = cur
	}
}

// TestStepAllocations: once warmed, a cycle reuses every buffer, and only
// a slab refill (one per pktSlabLen packets or vcSlabLen hops) allocates,
// so a k=8 IVAL cycle averages well under one allocation.
func TestStepAllocations(t *testing.T) {
	s := mustNew(t, Config{K: 8, Rate: 0.3, Seed: 3, Alg: routing.IVAL{}})
	s.Run(2000)
	avg := testing.AllocsPerRun(100, s.step)
	t.Logf("%.2f allocations per cycle", avg)
	if avg >= 1 {
		t.Fatalf("%.2f allocations per cycle, want < 1", avg)
	}
}
