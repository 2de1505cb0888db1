package design

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"tcr/internal/store"
	"tcr/internal/topo"
)

// Cut-loop checkpointing: after every round, the loop serializes its
// accumulated cut log together with the solver's basis and pricing cursor.
// A killed run restarted with the same Options.Checkpoint path replays the
// log onto a fresh solver, installs the basis, and continues from the
// recorded round — bit for bit the run the uninterrupted loop would have
// produced, because the write barrier (Solver.RefreshFactors) puts the live
// solver through exactly the refactorization the restore path performs.
//
// The checkpoint identifies its run by a signature of the formulation
// (topology, base-model shape, lexicographic stage, tolerance, locality
// target); a file whose signature does not match is ignored and
// overwritten, so pointing different runs at one path degrades to "no
// resume", never to a wrong resume. Resume granularity is one cut loop: the
// lexicographic design's stage 2 carries a distinct signature, so a run
// killed in stage 2 re-runs stage 1, and stage 2's accumulated state is
// discarded.

// checkpointVersion invalidates checkpoints across incompatible solver or
// formulation changes. ckpt-2 added the integrity hash field; ckpt-3
// switched the stage-2 w cap from a cut row to a variable upper bound
// (bounded simplex), which changes the basis dimension and adds the at-upper
// nonbasic set to the serialized state; ckpt-4 tied the flow columns of
// each stabilizer channel orbit and keeps one potential block per
// full-group channel orbit. The signature has carried the base model's
// shape since, so a formulation change that moves the shape needs no bump.
const checkpointVersion = "tcr-ckpt-4"

// checkpoint is the on-disk resume state of a cut loop. SHA256 is the
// integrity hash (store.HashBytes) of the checkpoint's own JSON encoding
// with the SHA256 field empty: restoring into a live solver from state a
// crash or a stray editor has garbled would produce a silently different
// trajectory, so a checkpoint that does not verify is rejected outright.
type checkpoint struct {
	SHA256 string     `json:"sha256"`
	Sig    string     `json:"sig"`
	Round  int        `json:"round"` // completed rounds (next round index)
	Iters  int        `json:"iters"` // cumulative simplex pivots
	Cuts   []cutEntry `json:"cuts"`
	Basis  []int      `json:"basis"`
	Cursor int        `json:"cursor"` // partial-pricing rotation state
	// AtUpper lists the nonbasic columns sitting at their upper bounds; with
	// the bounded simplex a basis alone no longer determines the vertex.
	AtUpper []int `json:"atUpper,omitempty"`
}

// seal computes the integrity hash over the checkpoint's canonical encoding
// (SHA256 field empty) and returns the sealed bytes ready to write.
// verify re-derives the same encoding from a parsed checkpoint; JSON
// numbers round-trip exactly (Go emits the shortest representation that
// parses back to the same value), so writer and reader hash identical
// bytes whenever the semantic content is identical.
func (ck *checkpoint) seal() ([]byte, error) {
	ck.SHA256 = ""
	body, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	ck.SHA256 = store.HashBytes(body)
	return json.Marshal(ck)
}

// verify checks a parsed checkpoint's integrity hash.
func (ck *checkpoint) verify() bool {
	want := ck.SHA256
	if want == "" {
		return false
	}
	ck.SHA256 = ""
	body, err := json.Marshal(ck)
	ck.SHA256 = want
	return err == nil && store.HashBytes(body) == want
}

// sig fingerprints everything that shapes the cut loop's trajectory except
// its budgets (budgets may legitimately differ between the killed run and
// the resuming one). Every family identifies itself by its canonical
// topology string. The shape is the base model's as built, before any
// cut-log entry (the solver takes the cuts; the model never changes):
// rows × columns and the number of potential blocks. It implies the
// folding, and a formulation change that moves it invalidates old
// checkpoints and warm-start snapshots on its own.
func (p *FlowLP) sig() string {
	loc := ""
	if p.hRow >= 0 {
		loc = fmt.Sprintf(" loc=%g", p.locNorm)
	}
	return fmt.Sprintf("%s topo=%s shape=%dx%d blocks=%d stage=%d tol=%g%s",
		checkpointVersion, topo.String(p.T), p.model.NumRows(), p.model.NumVars(), len(p.blocks),
		p.ckptStage, p.opts.tol(), loc)
}

// writeSnapshot seals the loop's state after `round` completed rounds into
// path (a no-op when path is empty): the periodic Options.Checkpoint and
// the Options.FinalSnapshot written on certification share this layout.
// A final snapshot's Round/Iters record the certified run's totals, which
// are informational: a warm start restarts the round count at zero. The
// RefreshFactors barrier before capturing the basis is what makes the live
// continuation and a later restore numerically identical. Logs with
// non-serializable entries (average-case matrix cuts) are skipped; what
// names the file in errors.
func (p *FlowLP) writeSnapshot(path, what string, round, iters int) error {
	if path == "" || !p.serializable() {
		return nil
	}
	if err := p.solver.RefreshFactors(); err != nil {
		return fmt.Errorf("design: %s barrier: %w", what, err)
	}
	ck := checkpoint{
		Sig:     p.sig(),
		Round:   round,
		Iters:   iters,
		Cuts:    p.cutLog,
		Basis:   p.solver.Basis(),
		Cursor:  p.solver.PricingCursor(),
		AtUpper: p.solver.AtUpperSet(),
	}
	if ck.Cuts == nil {
		ck.Cuts = []cutEntry{}
	}
	data, err := ck.seal()
	if err != nil {
		return fmt.Errorf("design: %s encode: %w", what, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("design: %s dir: %w", what, err)
	}
	// Temp + fsync + rename + directory sync: a crash mid-write leaves the
	// previous file intact, never a torn one.
	if err := store.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("design: %s write: %w", what, err)
	}
	return nil
}

// installSnapshot loads the snapshot at path and, when its signature passes
// match, replays its cuts onto a fresh solver and installs its basis,
// at-upper set and pricing cursor, returning the recorded round and pivot
// counts. ok is false — and the solver untouched — when no usable snapshot
// exists (empty path, missing or unreadable file, failed integrity hash,
// signature mismatch, foreign cut entries, corrupt basis). A restore that
// fails midway rolls the solver back to its pre-restore state.
func (p *FlowLP) installSnapshot(path string, match func(sig string) bool) (round, iters int, ok bool) {
	if path == "" {
		return 0, 0, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil || !ck.verify() || !match(ck.Sig) {
		return 0, 0, false
	}
	for _, e := range ck.Cuts {
		if e.Kind == cutMatrix || (e.Kind == cutPair && (e.Block < 0 || e.Block >= len(p.blocks))) {
			return 0, 0, false
		}
	}
	savedLog := p.cutLog
	p.cutLog = ck.Cuts
	p.rebuildSolver()
	// The at-upper set must be in place before InstallBasis: the basic
	// values it recomputes depend on which nonbasic columns sit at bounds.
	err = p.solver.SetAtUpperSet(ck.AtUpper)
	if err == nil {
		err = p.solver.InstallBasis(ck.Basis)
	}
	if err != nil {
		p.cutLog = savedLog
		p.rebuildSolver()
		return 0, 0, false
	}
	p.solver.SetPricingCursor(ck.Cursor)
	return ck.Round, ck.Iters, true
}

// restoreCheckpoint resumes from an Options.Checkpoint whose signature
// matches this run exactly, returning the round to resume from and the
// pivots already spent; ok is false when the loop must start from scratch.
func (p *FlowLP) restoreCheckpoint() (round, iters int, ok bool) {
	sig := p.sig()
	return p.installSnapshot(p.opts.Checkpoint, func(s string) bool { return s == sig })
}

// stripLoc removes the locality component from a checkpoint signature.
// Permutation and lazy pair cuts bound channel loads independently of the
// H_avg budget (the Pareto sweep reuses one LP across targets on exactly
// this property), so a warm start may accept a snapshot whose run differed
// only in its locality target.
func stripLoc(sig string) string {
	if i := strings.Index(sig, " loc="); i >= 0 {
		return sig[:i]
	}
	return sig
}

// restoreWarmStart installs the Options.WarmFrom snapshot into a fresh cut
// loop, then re-aims the locality row (if any) at this run's target — the
// recorded locality retargets are replayed as-is and the fresh retarget,
// appended through the cut log, overwrites them exactly as a Pareto sweep's
// SetLocality does. The signature must match up to the locality component;
// anything unusable means a cold start, never a wrong warm one. ok is
// informational; callers may ignore it.
func (p *FlowLP) restoreWarmStart() (ok bool) {
	sig := stripLoc(p.sig())
	if _, _, ok := p.installSnapshot(p.opts.WarmFrom, func(s string) bool { return stripLoc(s) == sig }); !ok {
		return false
	}
	if p.hRow >= 0 {
		p.record(cutEntry{Kind: cutLoc, Val: p.locNorm})
	}
	return true
}

// clearCheckpoint removes the checkpoint after a certified finish, so a
// later run with the same path starts clean.
func (p *FlowLP) clearCheckpoint() error {
	if p.opts.Checkpoint == "" {
		return nil
	}
	if err := os.Remove(p.opts.Checkpoint); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("design: checkpoint remove: %w", err)
	}
	return nil
}
