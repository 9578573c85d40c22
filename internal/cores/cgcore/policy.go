// Package cgcore is a CG-OoO-style coarse-grain out-of-order core
// (arXiv 1606.01607), built as a thin policy over the shared engine: it
// reuses the superscalar policy's rename, recovery and retirement
// (internal/cores/sscore) and adds block-granular issue — instructions
// issue in program order within a block (a control-terminated or
// size-capped dispatch group) and out of order across blocks. The model
// serves as a third comparison column between the fully out-of-order SS
// baseline and STRAIGHT: it quantifies how much of SS's IPC survives
// when the select logic is coarsened to block granularity.
package cgcore

import (
	"fmt"

	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/isa/riscv"
	"straight/internal/program"
	"straight/internal/uarch"
)

// defaultBlockSize is the per-block instruction cap when the config
// leaves CGBlockSize zero.
const defaultBlockSize = 8

// New builds the coarse-grain OoO comparison core for the image. The
// block-size knob is cfg.CGBlockSize (0 = default 8); the InjectBug
// value it understands is engine.BugFreeListEarlyReclaim (inherited
// from the embedded superscalar rename policy).
func New(cfg uarch.Config, img *program.Image, opts engine.Options) engine.Sim {
	return engine.New[riscv.Inst](&policy{}, cfg, img, opts)
}

// policy is the coarse-grain OoO variant of the superscalar rename
// policy: identical front end, RMT/free-list rename, recovery walk and
// retirement, but issue is constrained to program order within a block.
// Blocks are cut at dispatch — at every control instruction and at the
// CGBlockSize cap — by chaining each µop to its in-block predecessor
// through the engine's GatePrev/GateSeq issue gate.
type policy struct {
	sscore.Policy

	// gatePrev/gatePrevSeq link the next dispatched µop to its in-block
	// predecessor; nil starts a fresh block. The seq tag keeps a link to
	// a recycled arena slot inert (engine issue() checks it).
	gatePrev    *engine.Uop[riscv.Inst]
	gatePrevSeq uint64
	blockLen    int
}

func (p *policy) Name() string { return "cgcore" }

func (p *policy) AdjustConfig(cfg *uarch.Config) {
	p.Policy.AdjustConfig(cfg)
	if cfg.CGBlockSize == 0 {
		cfg.CGBlockSize = defaultBlockSize
	}
}

//lint:coldpath batch boundary: runs between simulations, never inside the cycle loop
func (p *policy) Reset(c *engine.Core[riscv.Inst], img *program.Image) {
	p.Policy.Reset(c, img)
	p.gatePrev = nil
	p.gatePrevSeq = 0
	p.blockLen = 0
}

// Rename performs the normal superscalar rename, then threads the µop
// into the current block's issue chain and decides where the block ends:
// after a control instruction (the block's single exit) or at the size
// cap, whichever comes first.
func (p *policy) Rename(c *engine.Core[riscv.Inst], u *engine.Uop[riscv.Inst]) bool {
	if !p.Policy.Rename(c, u) {
		return false
	}
	if p.gatePrev != nil {
		u.GatePrev = p.gatePrev
		u.GateSeq = p.gatePrevSeq
	}
	p.gatePrev = u
	p.gatePrevSeq = u.Seq
	p.blockLen++
	if u.Inst.IsControl() || p.blockLen >= c.Cfg.CGBlockSize {
		p.gatePrev = nil
		p.blockLen = 0
	}
	return true
}

// RecoveryWalk runs the superscalar walk, then starts a fresh block:
// the squashed tail may include the chain head, and refetched
// instructions begin at a new (control-flow) block boundary anyway.
func (p *policy) RecoveryWalk(c *engine.Core[riscv.Inst], r *engine.Recovery[riscv.Inst], boundary uint64) int64 {
	walked := p.Policy.RecoveryWalk(c, r, boundary)
	p.gatePrev = nil
	p.blockLen = 0
	return walked
}

//lint:coldpath deadlock diagnostics, produced once when the run is already failing
func (p *policy) DeadlockDump(c *engine.Core[riscv.Inst]) string {
	return fmt.Sprintf("blockLen=%d gateOpen=%v\n", p.blockLen, p.gatePrev != nil) +
		p.Policy.DeadlockDump(c)
}
