package engine

import (
	"fmt"

	"straight/internal/emu"
	"straight/internal/program"
	"straight/internal/uarch"
)

// Restart: the restore-into-core path of the sampled simulator
// (DESIGN.md §16). A functional emulator fast-forwards the workload and
// takes architectural checkpoints; Restart seeds a detailed core from
// one so simulation can begin mid-program, skipping the fast-forwarded
// prefix entirely.

// Restart reinitializes the core exactly like Reset and then seeds it
// from a functional emulator's checkpoint: fetch resumes at the
// checkpointed PC, memory is copied frame-reusing into the core's
// backing store, and the policy checks the checkpoint's ISA and layers
// its architectural register state and golden emulator on top.
// Like Reset, it exists for batch reuse — one core per worker restarts
// across many sample windows without reallocating.
func (c *Core[I]) Restart(img *program.Image, ck *emu.Checkpoint) error {
	if ck.Exited {
		return fmt.Errorf("%s: Restart from an already-exited checkpoint", c.pol.Name())
	}
	c.Reset(img)
	c.FetchPC = ck.PC
	c.mem.CopyFrom(ck.Mem)
	return c.pol.Restore(c, ck)
}

// AdoptWarm copies functionally-warmed microarchitectural state
// (caches, direction predictor, BTB) into the core, called after
// Restart and before the detailed warmup. nil is a no-op (cold-state
// sampling). A warm direction predictor is adopted only when the core's
// predictor is the same gshare model; other predictors warm in the
// detailed phase.
func (c *Core[I]) AdoptWarm(w *uarch.WarmState) {
	if w == nil {
		return
	}
	c.hier.CopyStateFrom(w.Hier)
	c.BTB.CopyFrom(w.BTB)
	c.RAS.CopyFrom(w.RAS)
	if g, ok := c.Pred.(*uarch.Gshare); ok && w.Dir != nil {
		g.CopyFrom(w.Dir)
	}
}
