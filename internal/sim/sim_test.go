package sim

import (
	"context"
	"math"
	"testing"

	"tcr/internal/eval"
	"tcr/internal/paths"
	"tcr/internal/routing"
	"tcr/internal/topo"
	"tcr/internal/traffic"
)

func TestDatelineAssignment(t *testing.T) {
	tor := topo.NewTorus(4)
	// Path from (2,0) going +x three hops: wraps after node 3.
	p := paths.Path{Src: tor.NodeAt(2, 0), Dirs: []topo.Dir{topo.XPlus, topo.XPlus, topo.XPlus}}
	got := (DatelinePolicy{}).Assign(tor, p)
	want := []int{0, 0, 1} // hop 3->0 crosses the wrap, the hop after is class 1
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dateline classes = %v, want %v", got, want)
		}
	}
}

func TestTurnDatelineAssignment(t *testing.T) {
	tor := topo.NewTorus(4)
	// X-Y-X path: second X run must use the bumped class set.
	p := paths.Path{Src: 0, Dirs: []topo.Dir{
		topo.XPlus, topo.YPlus, topo.YPlus, topo.XPlus}}
	got := (TurnDatelinePolicy{}).Assign(tor, p)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("pre-turn classes wrong: %v", got)
	}
	if got[3] != 2 { // Y->X turn bumps to set 1 (class base 2)
		t.Fatalf("post-Y->X-turn class = %d, want 2 (%v)", got[3], got)
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	// Drive one packet through by hand: rate tuned so exactly the first
	// node injects... instead use a deterministic check via flit
	// conservation at low rate.
	s := mustNew(t, Config{K: 4, Rate: 0.05, Seed: 1, Alg: routing.DOR{}})
	s.StartMeasurement()
	s.Run(4000)
	st := s.Stats()
	if st.Deadlocked {
		t.Fatal("deadlock at trivial load")
	}
	if st.PacketsEjected == 0 {
		t.Fatal("no packets delivered")
	}
	// At 5% load the network is nearly empty: latency close to the
	// zero-load bound (min distance + serialization).
	tor := topo.NewTorus(4)
	minLat := tor.MeanMinDist() + float64(s.cfg.PacketFlits-1)
	if st.AvgLatency < minLat*0.8 || st.AvgLatency > minLat*3 {
		t.Fatalf("avg latency %v implausible (zero-load bound %v)", st.AvgLatency, minLat)
	}
}

func TestFlitConservation(t *testing.T) {
	s := mustNew(t, Config{K: 4, Rate: 0.3, Seed: 7, Alg: routing.IVAL{}})
	s.StartMeasurement()
	s.Run(3000)
	st := s.Stats()
	if st.EjectedFlits > st.InjectedFlits {
		t.Fatalf("ejected %d > injected %d", st.EjectedFlits, st.InjectedFlits)
	}
	// At a stable load nearly everything injected should drain through.
	if float64(st.EjectedFlits) < 0.8*float64(st.InjectedFlits) {
		t.Fatalf("only %d of %d flits delivered", st.EjectedFlits, st.InjectedFlits)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() Stats {
		s := mustNew(t, Config{K: 4, Rate: 0.4, Seed: 42, Alg: routing.DOR{}})
		s.StartMeasurement()
		s.Run(2000)
		return s.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
}

func TestNoDeadlockUnderAdversarialLoad(t *testing.T) {
	tor := topo.NewTorus(4)
	for _, alg := range []routing.Algorithm{routing.DOR{}, routing.VAL{}, routing.IVAL{}} {
		for _, pat := range []*traffic.Matrix{
			traffic.Tornado(tor), traffic.Transpose(tor), nil,
		} {
			s := mustNew(t, Config{K: 4, Rate: 0.9, Seed: 3, Alg: alg, Pattern: pat})
			s.Run(6000)
			if s.Stats().Deadlocked {
				t.Fatalf("%s deadlocked under adversarial load", alg.Name())
			}
		}
	}
}

func TestSaturationThroughputFractionOfIdeal(t *testing.T) {
	// Section 2.1: practical routers reach a substantial fraction (the
	// paper cites 60-75%) of the ideal edge-congestion throughput, never
	// exceeding it. DOR on k=4 under uniform: ideal = capacity = 2.0
	// injection fraction, i.e. saturation at min(1.0, ...) of injection
	// bandwidth here, so drive at full rate and expect a healthy fraction.
	s := mustNew(t, Config{K: 4, Rate: 1.0, Seed: 5, Alg: routing.DOR{}, VCsPerClass: 2, BufDepth: 8})
	s.Run(2000) // warmup
	s.StartMeasurement()
	s.Run(6000)
	st := s.Stats()
	if st.Deadlocked {
		t.Fatal("deadlocked")
	}
	// Ideal accepted load at Rate=1.0 is 1.0 flits/node/cycle (injection
	// bound binds before the network's 2.0 capacity).
	if st.Throughput > 1.0+1e-9 {
		t.Fatalf("throughput %v exceeds injection bandwidth", st.Throughput)
	}
	if st.Throughput < 0.5 {
		t.Fatalf("throughput %v below half of ideal; router model too lossy", st.Throughput)
	}
}

func TestTornadoThroughputOrdering(t *testing.T) {
	// Under tornado traffic, ideal throughput: DOR saturates at
	// capacity/3 (load 3 per +x channel at unit injection on k=8; on k=4
	// the shift is 1 so use k=8's shape via k=6)... use k=8 for the
	// canonical effect: VAL should beat DOR under tornado at high load.
	throughput := func(alg routing.Algorithm) float64 {
		tor := topo.NewTorus(8)
		s := mustNew(t, Config{K: 8, Rate: 0.9, Seed: 11, Alg: alg, Pattern: traffic.Tornado(tor),
			VCsPerClass: 3, BufDepth: 8})
		s.Run(3000)
		s.StartMeasurement()
		s.Run(10000)
		st := s.Stats()
		if st.Deadlocked {
			t.Fatalf("%s deadlocked", alg.Name())
		}
		return st.Throughput
	}
	dor := throughput(routing.DOR{})
	val := throughput(routing.VAL{})
	if val <= dor {
		t.Fatalf("VAL (%v) should beat DOR (%v) under tornado", val, dor)
	}
}

func TestSimulatedLoadsMatchAnalyticChannelLoads(t *testing.T) {
	// The analytic model predicts expected channel crossings per injected
	// packet; at low load the simulator's delivered hop counts should
	// match H_avg.
	alg := routing.IVAL{}
	tor := topo.NewTorus(4)
	f := eval.FromAlgorithm(tor, alg)
	s := mustNew(t, Config{K: 4, Rate: 0.1, Seed: 13, Alg: alg, PacketFlits: 1})
	s.StartMeasurement()
	s.Run(30000)
	st := s.Stats()
	// Mean latency of single-flit packets at near-zero load ~ mean path
	// length (one cycle per hop) + 1 ejection... allow generous envelope
	// around H_avg; it must at least correlate.
	h := f.HAvg()
	if st.AvgLatency < h*0.8 || st.AvgLatency > h*2.5+4 {
		t.Fatalf("avg latency %v vs analytic H %v", st.AvgLatency, h)
	}
}

func TestSelfTrafficEjectsImmediately(t *testing.T) {
	// A pattern of pure self traffic must flow at full rate with latency
	// just the serialization time.
	n := 16
	pat := traffic.NewMatrix(n)
	for i := 0; i < n; i++ {
		pat.L[i][i] = 1
	}
	s := mustNew(t, Config{K: 4, Rate: 0.5, Seed: 17, Alg: routing.DOR{}, Pattern: pat})
	s.StartMeasurement()
	s.Run(3000)
	st := s.Stats()
	if st.PacketsEjected == 0 {
		t.Fatal("no self packets delivered")
	}
	if st.AvgLatency > float64(s.cfg.PacketFlits)+2 {
		t.Fatalf("self-traffic latency %v too high", st.AvgLatency)
	}
}

func TestStatsThroughputDefinition(t *testing.T) {
	s := mustNew(t, Config{K: 4, Rate: 0.2, Seed: 23, Alg: routing.DOR{}})
	s.StartMeasurement()
	s.Run(5000)
	st := s.Stats()
	want := float64(st.EjectedFlits) / float64(st.Cycles) / 16
	if math.Abs(st.Throughput-want) > 1e-12 {
		t.Fatalf("throughput %v, want %v", st.Throughput, want)
	}
	// Accepted should be close to offered at this easy load.
	if st.Throughput < 0.15 {
		t.Fatalf("throughput %v far below offered 0.2", st.Throughput)
	}
}

// mustNew builds a simulator for a test-controlled config, failing the test
// on a configuration error.
func mustNew(t *testing.T, cfg Config) *Sim {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustParse builds a topology from its family:spec form.
func mustParse(tb testing.TB, s string) topo.Topology {
	tb.Helper()
	top, err := topo.Parse(s)
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// minTable is a deterministic single-shortest-path routing table for any
// topology: at each node, take the lowest port that reduces the remaining
// distance. It stands in for the closed-form algorithms (which are
// torus2d-specific) when tests need traffic on other families.
func minTable(tb testing.TB, t topo.Topology) *routing.Table {
	tb.Helper()
	route := func(s, d topo.Node) paths.Path {
		p := paths.Path{Src: s}
		for cur := s; cur != d; {
			next := topo.Node(-1)
			for pt := 0; pt < t.OutDeg(cur); pt++ {
				nb := t.ChanDst(t.PortChan(cur, pt))
				if t.MinDist(nb, d) < t.MinDist(cur, d) {
					p.Dirs = append(p.Dirs, topo.Dir(pt))
					next = nb
					break
				}
			}
			if next < 0 {
				tb.Fatalf("no minimal progress from %d toward %d", cur, d)
			}
			cur = next
		}
		return p
	}
	n := t.Nodes()
	dist := map[topo.Node][]paths.Weighted{}
	if t.VertexTransitive() {
		for d := 1; d < n; d++ {
			dist[topo.Node(d)] = []paths.Weighted{{Path: route(0, topo.Node(d)), Prob: 1}}
		}
	} else {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					dist[topo.Node(s*n+d)] = []paths.Weighted{{Path: route(topo.Node(s), topo.Node(d)), Prob: 1}}
				}
			}
		}
	}
	return &routing.Table{Label: "min", Dist: dist}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := New(Config{K: 1, Alg: routing.DOR{}}); err == nil {
		t.Fatal("radix 1 accepted")
	}
	if _, err := New(Config{K: 4}); err == nil {
		t.Fatal("missing algorithm accepted")
	}
	if _, err := New(Config{K: 4, Alg: routing.DOR{}, Pattern: traffic.Uniform(9)}); err == nil {
		t.Fatal("mismatched pattern size accepted")
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"negative VCs per class", Config{K: 4, Alg: routing.DOR{}, VCsPerClass: -1}},
		{"negative buffer depth", Config{K: 4, Alg: routing.DOR{}, BufDepth: -1}},
		{"negative packet length", Config{K: 4, Alg: routing.DOR{}, PacketFlits: -1}},
		{"negative rate", Config{K: 4, Alg: routing.DOR{}, Rate: -0.1}},
		{"NaN rate", Config{K: 4, Alg: routing.DOR{}, Rate: math.NaN()}},
		{"infinite rate", Config{K: 4, Alg: routing.DOR{}, Rate: math.Inf(1)}},
	} {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
		if _, err := Simulate(context.Background(), c.cfg); err == nil {
			t.Errorf("%s accepted by Simulate", c.name)
		}
	}
}
