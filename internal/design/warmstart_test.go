package design

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tcr/internal/topo"
	"tcr/internal/traffic"
)

// The warm-start contract: a certified run writes its final cut-loop state
// to Options.FinalSnapshot, and a later run pointed at it via
// Options.WarmFrom begins with those cuts and that basis installed — so a
// re-solve of the same formulation (even at a different locality target,
// which is the online loop's re-tune case) certifies in strictly fewer
// rounds than a cold solve, at the same optimum.

// TestWarmStartSameTargetOneRound: re-solving the exact formulation a
// snapshot certified should need only the certification round itself.
func TestWarmStartSameTargetOneRound(t *testing.T) {
	tor := topo.NewTorus(4)
	snap := filepath.Join(t.TempDir(), "final.snap")

	cold, err := WorstCaseOptimal(tor, Options{FinalSnapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Certified {
		t.Fatalf("cold run uncertified: %s", cold.Reason)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no final snapshot written: %v", err)
	}

	warm, err := WorstCaseOptimal(tor, Options{WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Certified {
		t.Fatalf("warm run uncertified: %s", warm.Reason)
	}
	if warm.Rounds != 1 {
		t.Errorf("warm re-solve of an identical formulation took %d rounds, want 1", warm.Rounds)
	}
	// The re-solve starts from a refactorized basis, so the certified
	// optimum may differ from the cold run's in the last ulps.
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Errorf("warm objective %.17g != cold %.17g", warm.Objective, cold.Objective)
	}
}

// TestWarmStartAcrossLocalityTargets pins the online re-tune case: a
// snapshot taken at one locality target warm-starts a solve at another
// (cuts are valid for every target), certifying in fewer rounds than a cold
// solve of the new target while reaching the same optimum.
func TestWarmStartAcrossLocalityTargets(t *testing.T) {
	tor := topo.NewTorus(4)
	snap := filepath.Join(t.TempDir(), "final.snap")

	first, err := WorstCaseAtLocality(tor, 1.5, Options{FinalSnapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Certified {
		t.Fatalf("first run uncertified: %s", first.Reason)
	}

	coldRef, err := WorstCaseAtLocality(tor, 1.25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !coldRef.Certified {
		t.Fatalf("cold reference uncertified: %s", coldRef.Reason)
	}

	warm, err := WorstCaseAtLocality(tor, 1.25, Options{WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Certified {
		t.Fatalf("warm run uncertified: %s", warm.Reason)
	}
	if warm.Rounds >= coldRef.Rounds {
		t.Errorf("warm re-solve took %d rounds, cold %d; warm start saved nothing",
			warm.Rounds, coldRef.Rounds)
	}
	if math.Abs(warm.Objective-coldRef.Objective) > 1e-6*math.Max(1, math.Abs(coldRef.Objective)) {
		t.Errorf("warm optimum %v != cold optimum %v", warm.Objective, coldRef.Objective)
	}
}

// TestWarmStartUnusableSnapshotIgnored: a torn or foreign snapshot means a
// cold start, never a wrong warm one.
func TestWarmStartUnusableSnapshotIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	dir := t.TempDir()

	cases := []struct{ name, content string }{
		{"torn", `{"sig":"tcr-ckpt-4 topo=torus2d:4`},
		{"garbage", "\x00\x01not a snapshot"},
		{"empty", ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			snap := filepath.Join(dir, tc.name+".snap")
			if err := os.WriteFile(snap, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := WorstCaseOptimal(tor, Options{WarmFrom: snap})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
				t.Fatalf("certified=%v gamma_wc=%v, want certified 1.0", res.Certified, res.GammaWC)
			}
		})
	}

	// A snapshot from a different topology must be rejected by signature.
	snap := filepath.Join(dir, "k5.snap")
	if _, err := WorstCaseOptimal(topo.NewTorus(5), Options{FinalSnapshot: snap}); err != nil {
		t.Fatal(err)
	}
	res, err := WorstCaseOptimal(tor, Options{WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("foreign-topology snapshot: certified=%v gamma_wc=%v, want certified 1.0",
			res.Certified, res.GammaWC)
	}
}

// TestAvgCaseIgnoresCheckpointAndWarmStart: the average-case loop never
// restores, writes or clears a checkpoint, and never warm-starts. Its flow
// LP's signature can equal the k=4 potential LP's, so a valid checkpoint and
// final snapshot of that LP must leave the run bit-identical to one with
// neither option, and both files byte-unchanged.
func TestAvgCaseIgnoresCheckpointAndWarmStart(t *testing.T) {
	tor := topo.NewTorus(4)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "wc.ckpt")
	snap := filepath.Join(dir, "final.snap")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("4-round run certified; expected a leftover checkpoint")
	}
	if _, err := WorstCaseOptimal(tor, Options{FinalSnapshot: snap}); err != nil {
		t.Fatal(err)
	}
	ckptBytes, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	samples := traffic.Sample(tor.N, 12, 17)
	ref, err := AvgCaseOptimal(tor, samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AvgCaseOptimal(tor, samples, Options{Checkpoint: ckpt, WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	if goldenHash(got.Flow.X, got.Objective) != goldenHash(ref.Flow.X, ref.Objective) ||
		got.Rounds != ref.Rounds || got.Iterations != ref.Iterations || got.Certified != ref.Certified {
		t.Errorf("avg-case run with Checkpoint/WarmFrom (rounds=%d iters=%d) differs from plain run (rounds=%d iters=%d)",
			got.Rounds, got.Iterations, ref.Rounds, ref.Iterations)
	}
	for _, f := range []struct {
		path string
		want []byte
	}{{ckpt, ckptBytes}, {snap, snapBytes}} {
		after, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(f.path), err)
		}
		if !bytes.Equal(after, f.want) {
			t.Errorf("%s changed by the average-case run", filepath.Base(f.path))
		}
	}
}
