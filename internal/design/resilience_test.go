package design

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcr/internal/lp"
	"tcr/internal/topo"
)

// TestCheckpointResumeK4 pins the checkpoint contract: a run killed by a
// round budget leaves a checkpoint, and resuming it with the full budget
// reproduces the uninterrupted run bit for bit — same objective, exact
// worst-case load, round count, and final pivot count.
func TestCheckpointResumeK4(t *testing.T) {
	tor := topo.NewTorus(4)
	dir := t.TempDir()

	// Reference: an uninterrupted checkpointing run. (The checkpoint write
	// barrier refactorizes each round, so the reference must checkpoint
	// too — a no-checkpoint run is a different, equally valid trajectory.)
	full, err := WorstCaseOptimal(tor, Options{Checkpoint: filepath.Join(dir, "ref.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Certified {
		t.Fatalf("reference run uncertified: %s", full.Reason)
	}

	// Killed run: same formulation, round budget too small to certify.
	ckpt := filepath.Join(dir, "wc.ckpt")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("6-round run certified; budget too large for the kill test")
	}
	if partial.Flow == nil || partial.Reason == "" {
		t.Fatalf("degraded result missing flow or reason: %+v", partial)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint left behind by the killed run: %v", err)
	}

	// Resume with the default budget and compare against the reference.
	resumed, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Certified {
		t.Fatalf("resumed run uncertified: %s", resumed.Reason)
	}
	//lint:ignore floatcmp the resume contract is bit-for-bit equality
	if resumed.Objective != full.Objective || resumed.GammaWC != full.GammaWC {
		t.Errorf("resumed optimum (%.17g, %.17g) != reference (%.17g, %.17g)",
			resumed.Objective, resumed.GammaWC, full.Objective, full.GammaWC)
	}
	if resumed.Rounds != full.Rounds || resumed.Iterations != full.Iterations {
		t.Errorf("resumed trajectory (rounds=%d iters=%d) != reference (rounds=%d iters=%d)",
			resumed.Rounds, resumed.Iterations, full.Rounds, full.Iterations)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("checkpoint not cleared after certification: %v", err)
	}
}

// TestCheckpointCorruptIgnored: an unreadable checkpoint degrades to a fresh
// run, never to a wrong resume.
func TestCheckpointCorruptIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	ckpt := filepath.Join(t.TempDir(), "wc.ckpt")
	if err := os.WriteFile(ckpt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("uncertified: %s", res.Reason)
	}
	if math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("gamma_wc = %v, want 1.0", res.GammaWC)
	}
}

// TestCheckpointSigMismatchIgnored: a checkpoint from a differently shaped
// run (here: another tolerance) is ignored rather than restored.
func TestCheckpointSigMismatchIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	ckpt := filepath.Join(t.TempDir(), "wc.ckpt")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("4-round run certified; expected a leftover checkpoint")
	}
	res, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("certified=%v gamma_wc=%v, want certified 1.0", res.Certified, res.GammaWC)
	}
}

// TestCheckpointTamperRejected: a checkpoint whose content no longer
// matches its integrity hash — here, a semantically valid JSON edit that
// bumps the recorded round count — is rejected and the run starts fresh
// rather than resuming into a corrupted trajectory.
func TestCheckpointTamperRejected(t *testing.T) {
	tor := topo.NewTorus(4)
	ckpt := filepath.Join(t.TempDir(), "wc.ckpt")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("6-round run certified; expected a leftover checkpoint")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["sha256"] == "" || m["sha256"] == nil {
		t.Fatal("checkpoint carries no integrity hash")
	}
	m["round"] = m["round"].(float64) + 1
	tampered, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	// The tampered file parses and carries the right signature, but its
	// hash no longer verifies: the resume must be refused and the fresh
	// run must still certify the known k=4 optimum.
	res, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || math.Abs(res.GammaWC-1.0) > 1e-5 {
		t.Fatalf("certified=%v gamma_wc=%v, want certified 1.0", res.Certified, res.GammaWC)
	}
	// A fresh reference run checkpoints through the same cadence, so a
	// refused resume reproduces its trajectory exactly.
	ref, err := WorstCaseOptimal(tor, Options{Checkpoint: filepath.Join(t.TempDir(), "ref.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != ref.Rounds || res.Iterations != ref.Iterations {
		t.Errorf("post-tamper run (rounds=%d iters=%d) != fresh run (rounds=%d iters=%d): tampered state leaked in",
			res.Rounds, res.Iterations, ref.Rounds, ref.Iterations)
	}
}

// TestDegradedWorstCase pins graceful degradation without checkpointing: an
// exhausted round budget yields the best feasible iterate, uncertified, with
// an exact worst-case evaluation no better than the true optimum.
func TestDegradedWorstCase(t *testing.T) {
	tor := topo.NewTorus(4)
	res, err := WorstCaseOptimal(tor, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Fatal("3-round run certified; budget too large for the degradation test")
	}
	if res.Flow == nil {
		t.Fatal("degraded result carries no flow")
	}
	if !strings.Contains(res.Reason, "converge") {
		t.Errorf("reason %q does not name the exhausted budget", res.Reason)
	}
	// The uncertified routing is feasible, so its exact worst-case load
	// can only be at or above the true optimum (1.0 on the k=4 torus).
	if res.GammaWC < 1.0-1e-9 {
		t.Errorf("degraded gamma_wc = %v below the optimum", res.GammaWC)
	}
	if res.HNorm <= 0 {
		t.Errorf("degraded result missing locality metrics: HNorm=%v", res.HNorm)
	}
}

// TestParetoUncertifiedErrors: sweeps cannot degrade point-wise, so an
// exhausted budget surfaces as ErrUncertified.
func TestParetoUncertifiedErrors(t *testing.T) {
	tor := topo.NewTorus(4)
	_, err := WorstCaseParetoCurve(tor, []float64{1.0, 2.0}, Options{MaxRounds: 2})
	if !errors.Is(err, ErrUncertified) {
		t.Fatalf("err = %v, want ErrUncertified", err)
	}
}

// TestMinLocalityDegradesOnStage1: the lexicographic design must not cap
// stage 2 with an uncertified stage-1 bound.
func TestMinLocalityDegradesOnStage1(t *testing.T) {
	tor := topo.NewTorus(4)
	res, err := MinLocalityAtWorstCase(tor, Options{MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Fatal("expected an uncertified stage-1 degradation")
	}
	if !strings.HasPrefix(res.Reason, "stage 1:") {
		t.Errorf("reason %q does not attribute the failure to stage 1", res.Reason)
	}
}

// TestLexCheckpointedStage2 pins the regression where checkpointing the
// lexicographic design poisoned stage 2: every stage-1 checkpoint write
// runs the RefreshFactors barrier, which legitimately perturbs the
// numerical trajectory, and the perturbed stage-2 LP — feasible only
// within its 1e-6 cap slack — parked the eta engine's phase 1 at a
// certified optimum carrying ~1.7e-7 of artificial rounding mass, which
// an absolute mass cutoff escalated into a wrong Infeasible verdict.
func TestLexCheckpointedStage2(t *testing.T) {
	tor := topo.NewTorus(4)
	ref, err := MinLocalityAtWorstCase(tor, Options{})
	if err != nil {
		t.Fatalf("uncheckpointed: %v", err)
	}
	ck := filepath.Join(t.TempDir(), "lex.ckpt")
	res, err := MinLocalityAtWorstCase(tor, Options{Checkpoint: ck})
	if err != nil {
		t.Fatalf("checkpointed every round: %v", err)
	}
	if !res.Certified {
		t.Fatalf("checkpointed run uncertified: %s", res.Reason)
	}
	// The barrier refactorizations make the trajectories legitimately
	// different, so only the certified quantities must agree.
	if math.Abs(res.HNorm-ref.HNorm) > 1e-5 || math.Abs(res.GammaWC-ref.GammaWC) > 1e-5 {
		t.Fatalf("checkpointed run diverged: H=%v gamma=%v, want H=%v gamma=%v",
			res.HNorm, res.GammaWC, ref.HNorm, ref.GammaWC)
	}
}

// TestPreviousVersionSnapshotsIgnored: checkpoints and warm-start snapshots
// (the online loop's per-tenant warm slot is one) sealed under the
// tcr-ckpt-3 signature come from an LP of another shape — one potential
// block per translation channel orbit, no tied columns on the tori — and
// must never be installed. The files here are this run's own state with
// only the version relabeled and resealed, so nothing but the version tells
// them apart: the unrelabeled files install, the relabeled ones do not, and
// each run restarts cold and matches a fresh run.
func TestPreviousVersionSnapshotsIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	dir := t.TempDir()
	relabel := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var ck checkpoint
		if err := json.Unmarshal(data, &ck); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(ck.Sig, checkpointVersion+" ") {
			t.Fatalf("signature %q does not start with %s", ck.Sig, checkpointVersion)
		}
		ck.Sig = "tcr-ckpt-3" + strings.TrimPrefix(ck.Sig, checkpointVersion)
		sealed, err := ck.seal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string, got, want *Result) {
		t.Helper()
		if !got.Certified || goldenHash(got.Flow.X, got.Objective) != goldenHash(want.Flow.X, want.Objective) ||
			got.Rounds != want.Rounds || got.Iterations != want.Iterations {
			t.Errorf("%s: certified=%v rounds=%d iters=%d, fresh run rounds=%d iters=%d (or flows differ)",
				what, got.Certified, got.Rounds, got.Iterations, want.Rounds, want.Iterations)
		}
	}

	// Checkpoint resume.
	ckpt := filepath.Join(dir, "wc.ckpt")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("3-round run certified; expected a leftover checkpoint")
	}
	if _, _, ok := newPotentialLP(tor, false, Options{Checkpoint: ckpt}).restoreCheckpoint(); !ok {
		t.Fatal("the current-version checkpoint does not install; the test cannot tell versions apart")
	}
	relabel(ckpt)
	if _, _, ok := newPotentialLP(tor, false, Options{Checkpoint: ckpt}).restoreCheckpoint(); ok {
		t.Fatal("a tcr-ckpt-3 checkpoint was installed")
	}
	fresh, err := WorstCaseOptimal(tor, Options{Checkpoint: filepath.Join(dir, "ref.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	same("run over a tcr-ckpt-3 checkpoint", resumed, fresh)

	// Warm start.
	snap := filepath.Join(dir, "final.snap")
	if _, err := WorstCaseOptimal(tor, Options{FinalSnapshot: snap}); err != nil {
		t.Fatal(err)
	}
	if !newPotentialLP(tor, false, Options{WarmFrom: snap}).restoreWarmStart() {
		t.Fatal("the current-version snapshot does not install; the test cannot tell versions apart")
	}
	relabel(snap)
	if newPotentialLP(tor, false, Options{WarmFrom: snap}).restoreWarmStart() {
		t.Fatal("a tcr-ckpt-3 warm-start snapshot was installed")
	}
	cold, err := WorstCaseOptimal(tor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := WorstCaseOptimal(tor, Options{WarmFrom: snap})
	if err != nil {
		t.Fatal(err)
	}
	same("run warm-started from a tcr-ckpt-3 snapshot", warm, cold)
}

// TestCheckpointOfAnotherShapeIgnored: the checkpoint signature carries the
// base model's shape, so a checkpoint written by one LP never installs into
// an LP of another shape, even when topology, stage, tolerance and locality
// all agree. The other LP here is the same torus2d:4 worst-case LP with one
// extra, redundant base row (w <= N); it must reject the checkpoint, restart
// cold and match a fresh run of itself.
func TestCheckpointOfAnotherShapeIgnored(t *testing.T) {
	tor := topo.NewTorus(4)
	dir := t.TempDir()
	widened := func(opts Options) *FlowLP {
		p := newPotentialLP(tor, false, opts)
		p.model.AddRow([]lp.Term{{Var: p.wVar, Coef: 1}}, lp.LE, float64(tor.N), "")
		p.solver = lp.NewSolver(p.model)
		return p
	}

	ckpt := filepath.Join(dir, "wc.ckpt")
	partial, err := WorstCaseOptimal(tor, Options{Checkpoint: ckpt, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Certified {
		t.Fatal("3-round run certified; expected a leftover checkpoint")
	}
	if _, _, ok := newPotentialLP(tor, false, Options{Checkpoint: ckpt}).restoreCheckpoint(); !ok {
		t.Fatal("the checkpoint does not install into its own LP; the test cannot tell shapes apart")
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if sig := widened(Options{}).sig(); sig == ck.Sig {
		t.Fatalf("an LP with an extra base row has the checkpoint's signature %q", sig)
	}
	if _, _, ok := widened(Options{Checkpoint: ckpt}).restoreCheckpoint(); ok {
		t.Fatal("the checkpoint installed into an LP of another shape")
	}

	ctx := context.Background()
	fresh, err := widened(Options{Checkpoint: filepath.Join(dir, "ref.ckpt")}).solveWorstCase(ctx, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := widened(Options{Checkpoint: ckpt}).solveWorstCase(ctx, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Certified || goldenHash(resumed.Flow.X, resumed.Objective) != goldenHash(fresh.Flow.X, fresh.Objective) ||
		resumed.Rounds != fresh.Rounds || resumed.Iterations != fresh.Iterations {
		t.Errorf("run over another shape's checkpoint: certified=%v rounds=%d iters=%d, fresh run rounds=%d iters=%d (or flows differ)",
			resumed.Certified, resumed.Rounds, resumed.Iterations, fresh.Rounds, fresh.Iterations)
	}
}
