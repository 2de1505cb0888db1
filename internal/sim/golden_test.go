package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// goldenStats pins one simulation's measurement-window Stats bit for bit:
// every integer field, plus the IEEE-754 bits of Throughput and AvgLatency.
type goldenStats struct {
	cycles, inj, ej, pkts int
	deadlocked            bool
	thrBits, latBits      uint64
}

func pinStats(st Stats) goldenStats {
	return goldenStats{
		cycles: st.Cycles, inj: st.InjectedFlits, ej: st.EjectedFlits, pkts: st.PacketsEjected,
		deadlocked: st.Deadlocked,
		thrBits:    math.Float64bits(st.Throughput), latBits: math.Float64bits(st.AvgLatency),
	}
}

// goldenCase is one pinned configuration; cfg builds it lazily because
// some cases need a topology or routing table constructed under t.
type goldenCase struct {
	name string
	cfg  func(t *testing.T) Config
	want goldenStats
}

// halfSelf sends half of every source's traffic to itself and half along
// the tornado permutation.
func halfSelf(tor *topo.Torus) *traffic.Matrix {
	m := traffic.Tornado(tor)
	for i := range m.L {
		for j := range m.L[i] {
			m.L[i][j] /= 2
		}
		m.L[i][i] += 0.5
	}
	return m
}

// flatPolicy puts every hop in class 0 and hands out one shared slice, as
// a custom VCPolicy may: without a dateline, torus rings can deadlock, and
// an engine that wrote VC indices into the returned slice would corrupt
// later packets' classes.
type flatPolicy struct{ shared []int }

func (flatPolicy) Name() string { return "flat" }
func (flatPolicy) Classes() int { return 1 }
func (p flatPolicy) Assign(_ topo.Topology, path paths.Path) []int {
	return p.shared[:len(path.Dirs)]
}

func torusCfg(k int, alg routing.Algorithm, tornado bool, vcs, depth int, rate float64) func(*testing.T) Config {
	return func(*testing.T) Config {
		c := Config{K: k, Alg: alg, VCsPerClass: vcs, BufDepth: depth, Rate: rate, Seed: 101,
			Warmup: 300, Measure: 1200}
		if tornado {
			c.Pattern = traffic.Tornado(topo.NewTorus(k))
		}
		return c
	}
}

// goldenCases spans the engine's code paths: dateline and turn+dateline
// policies, one and several VCs per class, shallow and deep buffers,
// uniform and adversarial traffic below and above saturation, the
// hop-class policy on a mesh (including a policy wide enough to need more
// than 64 VCs per port), a 3D torus, and self traffic that ejects at the
// source.
var goldenCases = []goldenCase{
	{"k4/DOR/uniform/vc1/buf4/r0.30", torusCfg(4, routing.DOR{}, false, 1, 4, 0.30),
		goldenStats{1200, 5908, 5860, 1463, false, 0x3fd3888888888889, 0x4020bf6e6a0a2625}},
	{"k4/DOR/uniform/vc1/buf4/r0.95", torusCfg(4, routing.DOR{}, false, 1, 4, 0.95),
		goldenStats{1200, 18388, 10689, 2672, false, 0x3fe1d0a3d70a3d71, 0x40776ab1d20310dd}},
	{"k4/IVAL/tornado/vc3/buf8/r0.20", torusCfg(4, routing.IVAL{}, true, 3, 8, 0.20),
		goldenStats{1200, 3880, 3856, 963, false, 0x3fc9b4e81b4e81b5, 0x4015bfaaeeb87d79}},
	{"k4/IVAL/tornado/vc3/buf8/r0.90", torusCfg(4, routing.IVAL{}, true, 3, 8, 0.90),
		goldenStats{1200, 17496, 14847, 3710, false, 0x3fe8beb851eb851f, 0x40639cb482d44096}},
	{"k8/DOR/tornado/vc3/buf8/r0.15", torusCfg(8, routing.DOR{}, true, 3, 8, 0.15),
		goldenStats{1200, 11412, 11455, 2868, false, 0x3fc3177777777777, 0x4025909a3e202247}},
	{"k8/DOR/tornado/vc3/buf8/r0.60", torusCfg(8, routing.DOR{}, true, 3, 8, 0.60),
		goldenStats{1200, 45720, 20979, 5241, false, 0x3fd17b851eb851ec, 0x407ebe93067f18ab}},
	{"k8/IVAL/uniform/vc1/buf4/r0.20", torusCfg(8, routing.IVAL{}, false, 1, 4, 0.20),
		goldenStats{1200, 15056, 15115, 3776, false, 0x3fc9311111111111, 0x4038240000000000}},
	{"k8/IVAL/uniform/vc1/buf4/r0.70", torusCfg(8, routing.IVAL{}, false, 1, 4, 0.70),
		goldenStats{1200, 53740, 15924, 3980, false, 0x3fca8a3d70a3d70a, 0x408379649957bc14}},
	{"k8/IVAL/tornado/vc3/buf8/r0.30", torusCfg(8, routing.IVAL{}, true, 3, 8, 0.30),
		goldenStats{1200, 22544, 22708, 5683, false, 0x3fd2ec5f92c5f92c, 0x403247fc093083e6}},
	{"k8/DOR/uniform/vc3/buf4/r0.80", torusCfg(8, routing.DOR{}, false, 3, 4, 0.80),
		goldenStats{1200, 61720, 39334, 9841, false, 0x3fe063a06d3a06d4, 0x4074fef38a1b35d2}},
	{"mesh3x3/min/hop-class/vc2/buf4/r0.30", func(t *testing.T) Config {
		mesh := mustParse(t, "mesh:3x3")
		return Config{Topo: mesh, Alg: minTable(t, mesh), VCsPerClass: 2, BufDepth: 4, Rate: 0.30,
			Seed: 7, Warmup: 300, Measure: 1200}
	}, goldenStats{1200, 3172, 3170, 794, false, 0x3fd2c901e573ac90, 0x401c4acd0ed4cbc5}},
	{"mesh3x3/min/hop-class/vc1/buf8/r0.95", func(t *testing.T) Config {
		mesh := mustParse(t, "mesh:3x3")
		return Config{Topo: mesh, Alg: minTable(t, mesh), BufDepth: 8, Rate: 0.95,
			Seed: 7, Warmup: 300, Measure: 1200}
	}, goldenStats{1200, 10164, 6665, 1664, false, 0x3fe3bf86a314dbf8, 0x40721c64ec4ec4ec}},
	{"mesh3x3/min/hop-class30/vc3/buf4/r0.80", func(t *testing.T) Config {
		mesh := mustParse(t, "mesh:3x3")
		return Config{Topo: mesh, Alg: minTable(t, mesh), Policy: HopClassPolicy{NumClasses: 30},
			VCsPerClass: 3, BufDepth: 4, Rate: 0.80, Seed: 8, Warmup: 300, Measure: 1200}
	}, goldenStats{1200, 9064, 7414, 1854, false, 0x3fe5f7a80308b914, 0x406593d080235933}},
	{"torus3d3/min/hop-class/vc1/buf4/r0.60", func(t *testing.T) Config {
		t3 := mustParse(t, "torus3d:3")
		return Config{Topo: t3, Alg: minTable(t, t3), BufDepth: 4, Rate: 0.60,
			Seed: 5, Warmup: 300, Measure: 1200}
	}, goldenStats{1200, 18952, 18898, 4724, false, 0x3fe2aa29367ca65e, 0x4030e53abe51eff6}},
	{"k6/DOR/uniform/flat/vc2/buf2/r0.90", func(*testing.T) Config {
		return Config{K: 6, Alg: routing.DOR{},
			Policy: flatPolicy{shared: make([]int, 16)}, VCsPerClass: 2, BufDepth: 2, Rate: 0.90,
			Seed: 19, Warmup: 300, Measure: 2500}
	}, goldenStats{2500, 81380, 1968, 506, true, 0x3f96643728d2ceb6, 0x40656cb6226735a1}},
	{"k4/DOR/half-self/vc1/buf4/pf2/r0.70", func(*testing.T) Config {
		return Config{K: 4, Alg: routing.DOR{}, Pattern: halfSelf(topo.NewTorus(4)), PacketFlits: 2,
			BufDepth: 4, Rate: 0.70, Seed: 17, Warmup: 300, Measure: 1200}
	}, goldenStats{1200, 13738, 13536, 6766, false, 0x3fe68f5c28f5c28f, 0x4038663bc8009afa}},
}

// TestGoldenStats pins exact Stats for every golden case, so an engine
// rewrite that changes any arbitration, RNG draw or accounting order shows
// up as a bit-level mismatch.
func TestGoldenStats(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			st, err := Simulate(context.Background(), c.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			got := pinStats(st)
			if got != c.want {
				t.Errorf("stats %+v\n got pin: %s\nwant pin: %s", st, fmtPin(got), fmtPin(c.want))
			}
		})
	}
}

func fmtPin(g goldenStats) string {
	return fmt.Sprintf("goldenStats{%d, %d, %d, %d, %t, %#x, %#x}",
		g.cycles, g.inj, g.ej, g.pkts, g.deadlocked, g.thrBits, g.latBits)
}
