package design

// Golden design fingerprints: the k=4 and k=6 2D-torus worst-case designs
// (WorstCaseOptimal and WorstCaseAtLocality) are pinned BIT FOR BIT — a
// SHA-256 over the exact float64 bit patterns of the objective and the full
// flow solution. These runs are the paper's Figure 1 backbone and the
// compatibility contract for checkpoints and the artifact store: any solver
// change that moves even the last mantissa bit of these trajectories must be
// deliberate (and re-pin the hashes alongside a checkpoint-version bump).
//
// The lexicographic design (MinLocalityAtWorstCase) is checked semantically,
// not bitwise: its stage-2 cap on w is a variable bound, so legitimate
// simplex-path changes (e.g. the bounded-simplex ratio test) may move its
// trajectory while landing on the same optimum.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// goldenHash fingerprints a flow solution: SHA-256 (first 16 hex digits)
// over the little-endian bit patterns of obj then every flow value, in order.
func goldenHash(x [][]float64, obj float64) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(obj))
	h.Write(buf[:])
	for _, row := range x {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestGoldenDesignFingerprints(t *testing.T) {
	if !goldenEngineDefault {
		t.Skip("fingerprints pin the eta engine's bit trajectory; lpdense swaps the default engine")
	}
	// Captured with Options{Workers: 1} (the deterministic serial schedule).
	cases := []struct {
		k      int
		wcopt  string // WorstCaseOptimal hash over (Objective, Flow.X)
		wcloc  string // WorstCaseAtLocality(1.5) hash
		lexH   uint64 // MinLocalityAtWorstCase HNorm bits (semantic check)
		gammaW uint64 // WorstCaseOptimal GammaWC bits
	}{
		{4, "1f5abc6a25b55133", "a59bb351e998a7e4", 0x3ff59997a8f783ec, 0x3ff000000000008c},
		{6, "95f28965bb23fa0b", "bcd3837ed182cd01", 0x3ff71198f4769b48, 0x3ff8000000000dfb},
	}
	for _, tc := range cases {
		if tc.k == 6 && testing.Short() {
			continue
		}
		tor := topo.NewTorus(tc.k)
		opts := Options{Workers: 1}

		res, err := WorstCaseOptimal(tor, opts)
		if err != nil {
			t.Fatalf("k=%d wcopt: %v", tc.k, err)
		}
		if got := goldenHash(res.Flow.X, res.Objective); got != tc.wcopt {
			t.Errorf("k=%d WorstCaseOptimal fingerprint %s, pinned %s (gamma bits %x)",
				tc.k, got, tc.wcopt, math.Float64bits(res.GammaWC))
		}
		if got := math.Float64bits(res.GammaWC); got != tc.gammaW {
			t.Errorf("k=%d WorstCaseOptimal gamma bits %x, pinned %x", tc.k, got, tc.gammaW)
		}

		res2, err := WorstCaseAtLocality(tor, 1.5, opts)
		if err != nil {
			t.Fatalf("k=%d wcloc: %v", tc.k, err)
		}
		if got := goldenHash(res2.Flow.X, res2.Objective); got != tc.wcloc {
			t.Errorf("k=%d WorstCaseAtLocality fingerprint %s, pinned %s", tc.k, got, tc.wcloc)
		}

		res3, err := MinLocalityAtWorstCase(tor, opts)
		if err != nil {
			t.Fatalf("k=%d lex: %v", tc.k, err)
		}
		wantH := math.Float64frombits(tc.lexH)
		if d := math.Abs(res3.HNorm - wantH); d > 1e-6*wantH {
			t.Errorf("k=%d MinLocalityAtWorstCase HNorm=%v, want ~%v (diff %v)",
				tc.k, res3.HNorm, wantH, d)
		}
		// Lexicographic contract: stage 2 must hold the stage-1 worst case
		// (up to the cap's convergence-tolerance slack).
		if d := math.Abs(res3.GammaWC - res.GammaWC); d > 1e-4*res.GammaWC {
			t.Errorf("k=%d lex GammaWC=%v drifted from wcopt %v", tc.k, res3.GammaWC, res.GammaWC)
		}
	}
}

// TestGoldenLoopFingerprints pins, bit for bit, the cut loops the k=4/k=6
// worst-case pins above do not reach: the capacity LP (6), the
// average-case LP (15), and the 2TURN and 2TURNA path LPs. Each case hashes (Objective, Flow.X) with goldenHash and
// also pins the round and pivot counts, so a change to the order or content
// of any loop's solver mutations fails here.
func TestGoldenLoopFingerprints(t *testing.T) {
	if !goldenEngineDefault {
		t.Skip("fingerprints pin the eta engine's bit trajectory; lpdense swaps the default engine")
	}
	// Captured with Options{Workers: 1}.
	opts := Options{Workers: 1}
	flowCase := func(name string, run func() (*Result, error)) (string, int, int) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return goldenHash(res.Flow.X, res.Objective), res.Rounds, res.Iterations
	}
	pathCase := func(name string, run func() (*PathResult, error)) (string, int, int) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return goldenHash(res.Flow.X, res.Objective), res.Rounds, 0
	}
	t4, t3 := topo.NewTorus(4), topo.NewTorus(3)
	cases := []struct {
		name          string
		run           func() (string, int, int)
		hash          string
		rounds, iters int
	}{
		{"Capacity k=4", func() (string, int, int) {
			return flowCase("Capacity", func() (*Result, error) { return Capacity(t4, opts) })
		}, "19edc99064fb84e5", 2, 38},
		{"AvgCaseOptimal k=4", func() (string, int, int) {
			return flowCase("AvgCaseOptimal", func() (*Result, error) {
				return AvgCaseOptimal(t4, traffic.Sample(t4.N, 12, 17), opts)
			})
		}, "73fea66f6fce9b2b", 10, 835},
		{"DesignTwoTurn k=3", func() (string, int, int) {
			return pathCase("DesignTwoTurn", func() (*PathResult, error) { return DesignTwoTurn(t3, opts) })
		}, "e95bfbae7a895d05", 8, 0},
		{"DesignTwoTurnAvg k=3", func() (string, int, int) {
			return pathCase("DesignTwoTurnAvg", func() (*PathResult, error) {
				return DesignTwoTurnAvg(t3, traffic.Sample(t3.N, 12, 17), opts)
			})
		}, "663a65222a10437b", 12, 0},
	}
	for _, tc := range cases {
		hash, rounds, iters := tc.run()
		if hash != tc.hash || rounds != tc.rounds || iters != tc.iters {
			t.Errorf("%s: fingerprint %s rounds=%d iters=%d, pinned %s rounds=%d iters=%d",
				tc.name, hash, rounds, iters, tc.hash, tc.rounds, tc.iters)
		}
	}
}
