package sscore

import (
	"fmt"
	"io"

	"straight/internal/cores/engine"
	"straight/internal/emu"
	"straight/internal/emu/riscvemu"
	"straight/internal/isa/riscv"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
)

// New builds the superscalar baseline for the image: the shared engine
// steered by the RMT/free-list rename policy with tail-first ROB-walk
// recovery (paper §V-A). The InjectBug value it understands is
// engine.BugFreeListEarlyReclaim.
func New(cfg uarch.Config, img *program.Image, opts engine.Options) engine.Sim {
	return engine.New[riscv.Inst](&Policy{}, cfg, img, opts)
}

// Policy steers the shared engine with conventional superscalar
// semantics: RMT/free-list register renaming at dispatch and tail-first
// ROB-walk recovery at the front-end width (paper §V-A). It is exported
// so rename-compatible variants (internal/cores/cgcore) can embed it
// and override only the hooks they change.
type Policy struct {
	// Rename state.
	rmt        [32]int32
	freeList   *uarch.Ring[int32]
	inFreeList []bool // debug guard against double-free

	emu         *riscvemu.Machine
	fetchOracle *riscvemu.Machine
	out         io.Writer //lint:resetless engine output capture, fixed at construction

	// Prebuilt cross-validation trace hook (no per-retire closure).
	wantVal     uint32
	wantChecks  bool
	xvalTraceFn func(riscvemu.Retired) //lint:resetless prebuilt hook, rebound to the reused receiver
}

func (p *Policy) Name() string { return "sscore" }

func (p *Policy) AdjustConfig(cfg *uarch.Config) {}

func (p *Policy) RegCount(cfg *uarch.Config) int { return cfg.RegFileSize }

//lint:coldpath construction: builds the golden emulator and rename tables once per core
func (p *Policy) Init(c *engine.Core[riscv.Inst], img *program.Image, out io.Writer) {
	// Initial RMT: logical register i maps to physical i; the remaining
	// physical registers populate the free list.
	for i := 0; i < 32; i++ {
		p.rmt[i] = int32(i)
	}
	c.PRF[riscv.RegSP] = program.DefaultStackTop
	p.inFreeList = make([]bool, c.Cfg.RegFileSize)
	p.freeList = uarch.NewRing[int32](c.Cfg.RegFileSize)
	for ph := 32; ph < c.Cfg.RegFileSize; ph++ {
		p.freeList.PushBack(int32(ph))
		p.inFreeList[ph] = true
	}

	p.out = out
	p.emu = riscvemu.New(img)
	p.emu.SetOutput(out)
	p.xvalTraceFn = func(r riscvemu.Retired) {
		if r.Inst.WritesRd() && r.Inst.Rd != 0 {
			p.wantVal = r.Result
			p.wantChecks = true
		}
	}
	if c.UseOracle {
		p.fetchOracle = riscvemu.New(img)
		p.fetchOracle.SetOutput(io.Discard)
	}
}

//lint:coldpath batch boundary: runs between simulations, never inside the cycle loop
func (p *Policy) Reset(c *engine.Core[riscv.Inst], img *program.Image) {
	// Initial rename state: identity RMT, physicals 32.. free.
	for i := 0; i < 32; i++ {
		p.rmt[i] = int32(i)
	}
	c.PRF[riscv.RegSP] = program.DefaultStackTop
	p.freeList.Clear()
	for i := range p.inFreeList {
		p.inFreeList[i] = false
	}
	for ph := 32; ph < c.Cfg.RegFileSize; ph++ {
		p.freeList.PushBack(int32(ph))
		p.inFreeList[ph] = true
	}
	p.wantVal = 0
	p.wantChecks = false
	p.emu.Reset(img)
	p.emu.SetOutput(p.out)
	if p.fetchOracle != nil {
		p.fetchOracle.Reset(img)
	}
}

//lint:coldpath window boundary: runs between sample windows, never inside the cycle loop
func (p *Policy) Restore(c *engine.Core[riscv.Inst], ck *emu.Checkpoint) error {
	if ck.ISA != emu.RISCV {
		return fmt.Errorf("sscore: checkpoint from %s, want %s", ck.ISA, emu.RISCV)
	}
	p.emu.Restore(ck)
	p.emu.SetOutput(p.out)
	// Reset rebuilt the identity RMT and the free list; layering the
	// committed architectural values into physicals 0..31 completes the
	// state (x0 stays zero — Reg(0) is architecturally zero).
	for i := 0; i < 32; i++ {
		c.PRF[i] = p.emu.Reg(i)
	}
	if p.fetchOracle != nil {
		p.fetchOracle.Restore(ck)
	}
	return nil
}

func (p *Policy) Decode(raw uint32) (riscv.Inst, engine.InstInfo, bool) {
	inst := riscv.Decode(raw)
	if inst.Op == riscv.ILLEGAL {
		return riscv.Inst{}, engine.InstInfo{}, false
	}
	return inst, engine.InstInfo{
		Class:     classOf(inst),
		IsControl: inst.IsControl(),
		Serialize: inst.Op == riscv.ECALL,
	}, true
}

// PredictControl produces the front end's next-PC guess for a control
// instruction and maintains the RAS.
func (p *Policy) PredictControl(c *engine.Core[riscv.Inst], pc uint32, inst riscv.Inst, e *engine.FEEntry[riscv.Inst]) (bool, uint32) {
	switch inst.Op.Class() {
	case riscv.ClassBranch:
		e.IsBranch = true
		taken, meta := c.Pred.Predict(pc)
		e.PredMeta = meta
		return taken, pc + uint32(inst.Imm)
	default: // JAL / JALR
		h := inst.Hints()
		if h.Call {
			c.RAS.Push(pc + 4)
		}
		if !h.Indirect {
			return true, pc + uint32(inst.Imm)
		}
		if h.Return {
			if t, ok := c.RAS.Pop(); ok {
				return true, t
			}
		}
		if t, ok := c.BTB.Lookup(pc); ok {
			return true, t
		}
		// No target known: guess fall-through; execute will redirect.
		return false, pc + 4
	}
}

func (p *Policy) OracleStep()      { p.fetchOracle.Step() }
func (p *Policy) OraclePC() uint32 { return p.fetchOracle.PC() }

// ResyncOracle rebuilds the fetch oracle at the redirect point: a clone
// of the commit-point golden emulator stepped over the surviving ROB
// entries. Only needed for memory-violation recoveries in oracle mode
// (branch recoveries never occur there: fetch follows the true path).
func (p *Policy) ResyncOracle(c *engine.Core[riscv.Inst]) {
	o := p.emu.Clone() //lint:alloc oracle resync clones the golden model; memory-violation recoveries only
	for i := 0; i < c.ROB.Len(); i++ {
		if o.Step() != nil {
			break
		}
	}
	p.fetchOracle = o
}

// Rename performs the RAM-RMT port activity the power model counts:
// source lookups, old-destination lookup, free-list pop, RMT update. A
// false return is the free-list-empty stall; the burned sequence number
// models the rename group slot the blocked cycle occupied.
func (p *Policy) Rename(c *engine.Core[riscv.Inst], u *engine.Uop[riscv.Inst]) bool {
	inst := u.Inst
	if inst.ReadsRs1() {
		u.Src1 = p.rmt[inst.Rs1]
		c.Stat.RenameReads++
	}
	if inst.ReadsRs2() {
		u.Src2 = p.rmt[inst.Rs2]
		c.Stat.RenameReads++
	}
	if inst.WritesRd() && inst.Rd != 0 {
		c.Stat.RenameReads++ // old-mapping read for recovery/retire
		if p.freeList.Len() == 0 {
			c.Stat.StallFreeList++
			c.TraceStall(ptrace.StallFreeList)
			return false
		}
		u.LogDest = int8(inst.Rd)
		u.OldDest = p.rmt[inst.Rd]
		phys := p.freeList.PopFront()
		p.inFreeList[phys] = false
		c.Stat.FreeListOps++
		p.rmt[inst.Rd] = phys
		c.Stat.RenameWrites++
		u.Dest = phys
		c.PRFReady[phys] = engine.FarFuture
		if c.InjectBug == engine.BugFreeListEarlyReclaim && u.OldDest >= 0 && !p.inFreeList[u.OldDest] {
			// Deliberate defect for mutation-testing the fuzzing oracle:
			// the previous mapping is reclaimed at rename time instead of
			// retirement, so a later rename can recycle a physical
			// register that in-flight consumers still read.
			p.inFreeList[u.OldDest] = true
			p.freeList.PushBack(u.OldDest)
			u.OldDest = -1 // retirement must not reclaim it again
		}
	}
	return true
}

// Execute computes the µop's result and schedules its completion.
func (p *Policy) Execute(c *engine.Core[riscv.Inst], u *engine.Uop[riscv.Inst]) bool {
	inst := u.Inst
	rs1 := c.ReadSrc(u.Src1)
	rs2 := c.ReadSrc(u.Src2)
	lat := int64(c.Cfg.LatencyFor(u.Class))

	switch inst.Op.Class() {
	case riscv.ClassALU, riscv.ClassMul, riscv.ClassDiv:
		var res uint32
		switch inst.Op {
		case riscv.LUI:
			res = uint32(inst.Imm)
		case riscv.AUIPC:
			res = u.PC + uint32(inst.Imm)
		case riscv.FENCE:
		default:
			b := rs2
			if isImmOp(inst.Op) {
				b = uint32(inst.Imm)
			}
			res = riscv.Eval(inst.Op, rs1, b)
		}
		u.Result = res
		u.ReadyAt = c.Cycle + lat
		if inst.Op.Class() == riscv.ClassDiv {
			c.SetDivBusy(u.ReadyAt)
		}
	case riscv.ClassLoad:
		addr := rs1 + uint32(inst.Imm)
		width, _ := riscv.LoadWidth(inst.Op)
		raw, ok := c.LoadLookup(u, addr, width)
		if !ok {
			return false
		}
		u.Result = riscv.ExtendLoad(inst.Op, raw)
		c.WakeDest(u, u.ReadyAt)
		return true
	case riscv.ClassStore:
		addr := rs1 + uint32(inst.Imm)
		c.StoreExec(u, addr, riscv.StoreWidth(inst.Op), rs2)
		u.ReadyAt = c.Cycle + 1
	case riscv.ClassBranch:
		u.Taken = riscv.BranchTaken(inst.Op, rs1, rs2)
		u.Target = u.PC + 4
		if u.Taken {
			u.Target = u.PC + uint32(inst.Imm)
		}
		u.ReadyAt = c.Cycle + lat
	case riscv.ClassJump:
		u.Result = u.PC + 4
		u.Taken = true
		if inst.Op == riscv.JAL {
			u.Target = u.PC + uint32(inst.Imm)
		} else {
			u.Target = (rs1 + uint32(inst.Imm)) &^ 1
		}
		u.ReadyAt = c.Cycle + lat
	}
	// Speculative wakeup: dependents may issue to catch the result on
	// the bypass the cycle it becomes ready.
	c.WakeDest(u, u.ReadyAt)
	return true
}

func isImmOp(op riscv.Op) bool {
	switch op {
	case riscv.ADDI, riscv.SLTI, riscv.SLTIU, riscv.XORI, riscv.ORI, riscv.ANDI,
		riscv.SLLI, riscv.SRLI, riscv.SRAI, riscv.JALR:
		return true
	}
	return false
}

func (p *Policy) UpdatesBTB(inst riscv.Inst) bool { return inst.Hints().Indirect }

// RecoveryWalk models the SS recovery cost: the ROB is walked from the
// tail to the faulting instruction, undoing register mappings and
// refilling the free list (paper §V-A). The walk length feeds
// RecoveryPenalty's rename-stall computation.
func (p *Policy) RecoveryWalk(c *engine.Core[riscv.Inst], r *engine.Recovery[riscv.Inst], boundary uint64) int64 {
	walked := int64(0)
	for c.ROB.Len() > 0 {
		u := c.ROB.At(c.ROB.Len() - 1)
		if u.Seq <= boundary {
			break
		}
		if u.LogDest >= 0 {
			p.rmt[u.LogDest] = u.OldDest
			if p.inFreeList[u.Dest] {
				panic(fmt.Sprintf("walk double-free of phys %d (seq %d pc %#x %v)", u.Dest, u.Seq, u.PC, u.Inst))
			}
			p.inFreeList[u.Dest] = true
			p.freeList.PushFront(u.Dest)
			c.Stat.FreeListOps++
		}
		c.SquashTail(u)
		walked++
	}
	c.Stat.ROBWalkSteps += uint64(walked)
	return walked
}

// RecoveryPenalty: rename stalls until the walk completes, at the
// front-end width per cycle.
func (p *Policy) RecoveryPenalty(c *engine.Core[riscv.Inst], walked int64) {
	walkCycles := (walked + int64(c.Cfg.FetchWidth) - 1) / int64(c.Cfg.FetchWidth)
	blockUntil := c.Cycle + 1 + walkCycles
	if blockUntil > c.RenameBlock {
		c.RenameBlock = blockUntil
	}
	c.Stat.RecoveryStall += walkCycles
	if tr := c.Tr(); tr != nil {
		// Charge the whole walk up front; the blocked dispatch cycles
		// that follow are charged again when dispatch hits renameBlock,
		// matching how the stats counter is (double-)incremented.
		tr.StallN(ptrace.StallRecovery, walkCycles)
	}
}

func (p *Policy) RASRecover(c *engine.Core[riscv.Inst], u *engine.Uop[riscv.Inst]) {
	h := u.Inst.Hints()
	if h.Call {
		c.RAS.Push(u.PC + 4)
	}
	if h.Return {
		c.RAS.Pop()
	}
}

func (p *Policy) CommitSerialize(c *engine.Core[riscv.Inst], u *engine.Uop[riscv.Inst]) error {
	if p.emu.PC() != u.PC {
		return fmt.Errorf("sscore: ecall desync: core pc=%#x emu pc=%#x", u.PC, p.emu.PC()) //lint:alloc cross-validation abort; the run ends here
	}
	p.emu.Step()
	if done, code := p.emu.Exited(); done {
		c.Exited = true
		c.ExitCode = code
	}
	// a0 may have been written (SysCycle): update the committed
	// physical copy.
	a0 := p.rmt[riscv.RegA0]
	c.PRF[a0] = p.emu.Reg(riscv.RegA0)
	c.PRFReady[a0] = c.Cycle
	c.Wake(a0, c.Cycle)
	return nil
}

func (p *Policy) CommitRetire(c *engine.Core[riscv.Inst], u *engine.Uop[riscv.Inst], xval bool) error {
	if xval {
		if p.emu.PC() != u.PC {
			return fmt.Errorf("sscore: retire desync at seq %d: core pc=%#x emu pc=%#x", u.Seq, u.PC, p.emu.PC()) //lint:alloc cross-validation abort; the run ends here
		}
		p.wantChecks = false
		p.emu.TraceFn = p.xvalTraceFn
		p.emu.Step()
		p.emu.TraceFn = nil
		if p.wantChecks && u.Dest >= 0 && c.PRF[u.Dest] != p.wantVal {
			return fmt.Errorf("sscore: value desync at pc=%#x: core=%#x emu=%#x", u.PC, c.PRF[u.Dest], p.wantVal) //lint:alloc cross-validation abort; the run ends here
		}
	} else {
		p.emu.Step()
	}
	if done, code := p.emu.Exited(); done {
		c.Exited = true
		c.ExitCode = code
	}
	return nil
}

func (p *Policy) OnRetire(c *engine.Core[riscv.Inst], u *engine.Uop[riscv.Inst], r *uarch.Retirement) {
	if u.LogDest >= 0 && u.OldDest >= 0 {
		if p.inFreeList[u.OldDest] {
			panic(fmt.Sprintf("retire double-free of phys %d (seq %d pc %#x %v)", u.OldDest, u.Seq, u.PC, u.Inst))
		}
		p.inFreeList[u.OldDest] = true
		p.freeList.PushBack(u.OldDest)
		c.Stat.FreeListOps++
	}
	if r != nil && u.LogDest > 0 && u.Dest >= 0 {
		r.HasValue = true
		r.LogReg = int16(u.LogDest)
		r.Value = c.PRF[u.Dest]
	}
}

func (p *Policy) DispatchIdleTail(c *engine.Core[riscv.Inst], inst riscv.Inst) (uint64, bool) {
	if inst.WritesRd() && inst.Rd != 0 && p.freeList.Len() == 0 {
		rr := uint64(1) // the old-mapping read happens before the bail
		if inst.ReadsRs1() {
			rr++
		}
		if inst.ReadsRs2() {
			rr++
		}
		return rr, true
	}
	return 0, false
}

// DeadlockDump renders the pipeline state for deadlock diagnostics.
//
//lint:coldpath deadlock diagnostics, produced once when the run is already failing
func (p *Policy) DeadlockDump(c *engine.Core[riscv.Inst]) string {
	s := fmt.Sprintf("rob=%d iq=%d (awake=%d) exec=%d feq=%d freeList=%d fetchPC=%#x halted=%v stall=%d renameBlock=%d serializing=%v\n",
		c.ROB.Len(), c.IQCount, len(c.IQAwake), len(c.Executing), c.FEQueueLen(), p.freeList.Len(),
		c.FetchPC, c.FetchHalted, c.FetchStallUntil, c.RenameBlock, c.Serializing)
	if c.ROB.Len() > 0 {
		u := c.ROB.Front()
		s += fmt.Sprintf("rob head: seq=%d pc=%#x %v class=%v completed=%v squashed=%v readyAt=%d state=%d\n",
			u.Seq, u.PC, u.Inst, u.Class, u.Completed, u.Squashed, u.ReadyAt, u.State)
		// Walk the dependency chain from the head's pending source.
		pending := u.Src1
		if pending < 0 || c.PRFReady[pending] <= c.Cycle {
			pending = u.Src2
		}
		for depth := 0; depth < 10 && pending >= 0 && c.PRFReady[pending] > c.Cycle; depth++ {
			var owner *engine.Uop[riscv.Inst]
			for i := 0; i < c.ROB.Len(); i++ {
				if w := c.ROB.At(i); w.Dest == pending {
					owner = w
				}
			}
			if owner == nil {
				s += fmt.Sprintf("  reg %d: NO in-flight producer (prfReady=%d)\n", pending, c.PRFReady[pending])
				break
			}
			s += fmt.Sprintf("  reg %d <- seq=%d pc=%#x %v state=%d squashed=%v src1=%d src2=%d\n",
				pending, owner.Seq, owner.PC, owner.Inst, owner.State, owner.Squashed, owner.Src1, owner.Src2)
			next := owner.Src1
			if next < 0 || c.PRFReady[next] <= c.Cycle {
				next = owner.Src2
			}
			pending = next
		}
	}
	for i, u := range c.IQAwake {
		if i >= 4 {
			break
		}
		s += fmt.Sprintf("iqAwake[%d]: seq=%d pc=%#x %v src1=%d(r@%d) src2=%d(r@%d) readyTime=%d\n",
			i, u.Seq, u.PC, u.Inst, u.Src1, rdy(c, u.Src1), u.Src2, rdy(c, u.Src2), u.ReadyTime)
	}
	lq, sq := c.LSQ.Occupancy()
	s += fmt.Sprintf("lsq: loads=%d stores=%d\n", lq, sq)
	return s
}

func rdy(c *engine.Core[riscv.Inst], r int32) int64 {
	if r < 0 {
		return 0
	}
	return c.PRFReady[r]
}

func classOf(inst riscv.Inst) uarch.Class {
	switch inst.Op.Class() {
	case riscv.ClassMul:
		return uarch.ClassMul
	case riscv.ClassDiv:
		return uarch.ClassDiv
	case riscv.ClassLoad:
		return uarch.ClassLoad
	case riscv.ClassStore:
		return uarch.ClassStore
	case riscv.ClassBranch:
		return uarch.ClassBranch
	case riscv.ClassJump:
		return uarch.ClassJump
	case riscv.ClassSys:
		return uarch.ClassSys
	default:
		return uarch.ClassALU
	}
}
