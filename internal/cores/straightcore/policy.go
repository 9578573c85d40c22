package straightcore

import (
	"fmt"
	"io"

	"straight/internal/cores/engine"
	"straight/internal/emu"
	"straight/internal/emu/straightemu"
	"straight/internal/isa/straight"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
)

// BugMulReadyEarly is the InjectBug value for the documented scoreboard
// defect: multiply results are marked ready one cycle after issue while
// the functional unit still needs its full latency, so consumers can
// read a stale physical register.
const BugMulReadyEarly = "mul-ready-early"

// New builds the STRAIGHT core for the image: the shared engine steered
// by the distance-addressing policy (operand determination per paper
// Fig 3, single-ROB-entry recovery per §III-B). The InjectBug value it
// understands is BugMulReadyEarly.
func New(cfg uarch.Config, img *program.Image, opts engine.Options) engine.Sim {
	return engine.New[straight.Inst](&policy{}, cfg, img, opts)
}

// policy steers the shared engine with STRAIGHT semantics: operand
// determination by distance arithmetic (dest = RP, src = RP − distance
// mod MAX_RP; no table is read or written), in-order SP tracking at
// decode, and single-ROB-entry recovery.
type policy struct {
	// Operand determination state (the "rename" substitute).
	rp    int32  // next destination register
	maxRP int32  //lint:resetless cached cfg.MaxRP(), fixed at construction
	decSP uint32 // in-order SP at decode

	emu         *straightemu.Machine
	fetchOracle *straightemu.Machine
	out         io.Writer //lint:resetless engine output capture, fixed at construction

	// Prebuilt trace hooks for the golden emulator, so commit does not
	// allocate a closure per serialized SYS or cross-validated retire.
	sysRes      uint32
	wantRet     straightemu.Retired
	sysTraceFn  func(straightemu.Retired) //lint:resetless prebuilt hook, rebound to the reused receiver
	xvalTraceFn func(straightemu.Retired) //lint:resetless prebuilt hook, rebound to the reused receiver
}

func (p *policy) Name() string { return "straightcore" }

func (p *policy) AdjustConfig(cfg *uarch.Config) {
	if cfg.MaxDistance == 0 {
		cfg.MaxDistance = straight.MaxDistance
	}
}

//lint:coldpath construction-time sizing
func (p *policy) RegCount(cfg *uarch.Config) int { return cfg.MaxRP() }

//lint:coldpath construction: builds the golden emulator once per core
func (p *policy) Init(c *engine.Core[straight.Inst], img *program.Image, out io.Writer) {
	p.maxRP = int32(c.Cfg.MaxRP())
	p.decSP = program.DefaultStackTop
	p.out = out
	p.emu = straightemu.New(img)
	p.emu.SetOutput(out)
	p.sysTraceFn = func(r straightemu.Retired) { p.sysRes = r.Result }
	p.xvalTraceFn = func(r straightemu.Retired) { p.wantRet = r }
	if c.UseOracle {
		p.fetchOracle = straightemu.New(img)
		p.fetchOracle.SetOutput(io.Discard)
	}
}

//lint:coldpath batch boundary: runs between simulations, never inside the cycle loop
func (p *policy) Reset(c *engine.Core[straight.Inst], img *program.Image) {
	p.rp = 0
	p.decSP = program.DefaultStackTop
	p.sysRes = 0
	p.wantRet = straightemu.Retired{}
	p.emu.Reset(img)
	p.emu.SetOutput(p.out)
	if p.fetchOracle != nil {
		p.fetchOracle.Reset(img)
	}
}

//lint:coldpath window boundary: runs between sample windows, never inside the cycle loop
func (p *policy) Restore(c *engine.Core[straight.Inst], ck *emu.Checkpoint) error {
	if ck.ISA != emu.STRAIGHT {
		return fmt.Errorf("straightcore: checkpoint from %s, want %s", ck.ISA, emu.STRAIGHT)
	}
	p.emu.Restore(ck)
	p.emu.SetOutput(p.out)
	// RP is the dynamic instruction count mod MAX_RP: at power-on both
	// are zero and every instruction advances both by one (paper §III).
	count := p.emu.InstCount()
	p.rp = int32(count % uint64(p.maxRP))
	p.decSP = p.emu.SP()
	// Seed the committed sliding window: the value at distance d from the
	// next instruction lives in physical register (RP − d) mod MAX_RP.
	// Reset zeroed PRFReady, so every seeded value is ready at cycle 0.
	for d := int32(1); d <= int32(c.Cfg.MaxDistance); d++ {
		reg := p.rp - d
		if reg < 0 {
			reg += p.maxRP
		}
		c.PRF[reg] = p.emu.Reg(uint16(d))
	}
	if p.fetchOracle != nil {
		p.fetchOracle.Restore(ck)
	}
	return nil
}

func (p *policy) Decode(raw uint32) (straight.Inst, engine.InstInfo, bool) {
	inst, err := straight.Decode(raw)
	if err != nil {
		return straight.Inst{}, engine.InstInfo{}, false
	}
	return inst, engine.InstInfo{
		Class:     classOf(inst),
		IsControl: inst.IsControl(),
		Serialize: inst.Op == straight.SYS,
		SPAdd:     inst.Op == straight.SPADD,
	}, true
}

func (p *policy) PredictControl(c *engine.Core[straight.Inst], pc uint32, inst straight.Inst, e *engine.FEEntry[straight.Inst]) (bool, uint32) {
	switch inst.Op {
	case straight.BEZ, straight.BNZ:
		e.IsBranch = true
		taken, meta := c.Pred.Predict(pc)
		e.PredMeta = meta
		return taken, pc + uint32(inst.Imm)*4
	case straight.J, straight.JAL, straight.JALR, straight.JR:
		h := inst.Hints()
		if h.Call {
			c.RAS.Push(pc + 4)
		}
		if !h.Indirect {
			return true, pc + uint32(inst.Imm)*4
		}
		if h.Return {
			if t, ok := c.RAS.Pop(); ok {
				return true, t
			}
		}
		if t, ok := c.BTB.Lookup(pc); ok {
			return true, t
		}
		return false, pc + 4
	}
	return false, pc + 4
}

func (p *policy) OracleStep()      { p.fetchOracle.Step() }
func (p *policy) OraclePC() uint32 { return p.fetchOracle.PC() }

func (p *policy) ResyncOracle(c *engine.Core[straight.Inst]) {
	o := p.emu.Clone() //lint:alloc oracle resync clones the golden model; memory-violation recoveries only
	for i := 0; i < c.ROB.Len(); i++ {
		if o.Step() != nil {
			break
		}
	}
	p.fetchOracle = o
}

// Rename is STRAIGHT's operand determination (paper Fig 3): dest = RP;
// src_i = RP - distance_i (mod MAX_RP). It never blocks.
func (p *policy) Rename(c *engine.Core[straight.Inst], u *engine.Uop[straight.Inst]) bool {
	inst := u.Inst
	u.Dest = p.rp
	switch inst.NumSources() {
	case 2:
		u.Src1 = p.srcOf(c, inst.Src1)
		u.Src2 = p.srcOf(c, inst.Src2)
	case 1:
		u.Src1 = p.srcOf(c, inst.Src1)
	}
	c.PRFReady[u.Dest] = engine.FarFuture
	p.rp++
	if p.rp >= p.maxRP {
		p.rp = 0
	}

	// In-order SP update at decode (§III-B).
	if inst.Op == straight.SPADD {
		p.decSP += uint32(inst.Imm)
		u.SPRes = p.decSP
		c.Stat.SPAddExecuted++
	}
	u.SPAfter = p.decSP
	return true
}

func (p *policy) srcOf(c *engine.Core[straight.Inst], d uint16) int32 {
	if d == 0 {
		return -1
	}
	c.Stat.RPAdditions++
	s := p.rp - int32(d)
	if s < 0 {
		s += p.maxRP
	}
	return s
}

func (p *policy) Execute(c *engine.Core[straight.Inst], u *engine.Uop[straight.Inst]) bool {
	inst := u.Inst
	s1 := c.ReadSrc(u.Src1)
	s2 := c.ReadSrc(u.Src2)
	lat := int64(c.Cfg.LatencyFor(u.Class))
	op := inst.Op

	switch op.Class() {
	case straight.ClassNop:
		u.Result = 0
		u.ReadyAt = c.Cycle + lat
	case straight.ClassALU, straight.ClassMul, straight.ClassDiv:
		switch {
		case op == straight.RMOV:
			u.Result = s1
		case op == straight.SPADD:
			u.Result = u.SPRes // computed in order at dispatch
		case op == straight.LUI:
			u.Result = straight.LUIValue(inst.Imm)
		case op.Format() == straight.FmtR:
			u.Result = straight.EvalALU(op, s1, s2)
		default:
			u.Result = straight.EvalALUImm(op, s1, inst.Imm)
		}
		u.ReadyAt = c.Cycle + lat
		if op.Class() == straight.ClassDiv {
			c.SetDivBusy(u.ReadyAt)
		}
	case straight.ClassLoad:
		addr := s1 + uint32(inst.Imm)
		width, _ := straight.LoadWidth(op)
		raw, ok := c.LoadLookup(u, addr, width)
		if !ok {
			return false
		}
		u.Result = straight.ExtendLoad(op, raw)
		c.WakeDest(u, u.ReadyAt)
		return true
	case straight.ClassStore:
		addr := s1 + uint32(inst.Imm)
		c.StoreExec(u, addr, straight.StoreWidth(op), s2)
		u.Result = s2 // stores return the stored value (§III-A)
		u.ReadyAt = c.Cycle + 1
	case straight.ClassBranch:
		u.Taken = straight.BranchTaken(op, s1)
		u.Target = u.PC + 4
		u.Result = 0
		if u.Taken {
			u.Target = u.PC + uint32(inst.Imm)*4
			u.Result = 1
		}
		u.ReadyAt = c.Cycle + lat
	case straight.ClassJump:
		u.Taken = true
		switch op {
		case straight.J:
			u.Target = u.PC + uint32(inst.Imm)*4
		case straight.JAL:
			u.Result = u.PC + 4
			u.Target = u.PC + uint32(inst.Imm)*4
		case straight.JR:
			u.Target = s1
		case straight.JALR:
			u.Result = u.PC + 4
			u.Target = s1
		}
		u.ReadyAt = c.Cycle + lat
	}
	t := u.ReadyAt
	// Deliberate defect for mutation-testing the fuzzing oracle: the
	// scoreboard claims multiply results one cycle out while the
	// datapath still delivers them at the full multiplier latency, so
	// a close consumer issues against the stale physical register.
	if c.InjectBug == BugMulReadyEarly && u.Class == uarch.ClassMul {
		t = c.Cycle + 1
	}
	c.WakeDest(u, t)
	return true
}

func (p *policy) UpdatesBTB(inst straight.Inst) bool { return inst.Hints().Indirect }

// RecoveryWalk is where STRAIGHT differs fundamentally from the
// superscalar (paper §III-B, Fig 4): a single ROB entry read restores the
// register pointer (the squashed instruction's own destination number)
// and the decode-time SP. No table is walked; rename can accept
// instructions again the very next cycle.
func (p *policy) RecoveryWalk(c *engine.Core[straight.Inst], r *engine.Recovery[straight.Inst], boundary uint64) int64 {
	// One ROB read: locate the oldest discarded entry and restore RP/SP
	// from it; then drop the tail (tail-pointer move only).
	restored := false
	for c.ROB.Len() > 0 {
		u := c.ROB.At(c.ROB.Len() - 1)
		if u.Seq <= boundary {
			restored = true
			// RP restarts at the register after the last surviving
			// instruction's destination.
			p.rp = u.Dest + 1
			if p.rp >= p.maxRP {
				p.rp = 0
			}
			p.decSP = u.SPAfter
			break
		}
		c.SquashTail(u)
	}
	if !restored {
		// Entire ROB discarded: restore from the recovery µop itself.
		p.rp = r.U.Dest
		p.decSP = r.U.SPAfter
		if r.U.Inst.Op == straight.SPADD {
			// Its SPAfter already includes the update, which must also
			// be undone when the µop itself is squashed. (The violating
			// load of a memory-dependence flush is never an SPADD; its
			// own SPAfter is correct.)
			p.decSP = r.U.SPAfter - uint32(r.U.Inst.Imm)
		}
	}
	return 0
}

// RecoveryPenalty: the single ROB-entry read costs one cycle of rename
// availability — no walk (§III-B).
func (p *policy) RecoveryPenalty(c *engine.Core[straight.Inst], walked int64) {
	c.RenameBlock = c.Cycle + 1
	c.Stat.RecoveryStall++
	if tr := c.Tr(); tr != nil {
		tr.Stall(ptrace.StallRecovery, 0)
	}
}

func (p *policy) RASRecover(c *engine.Core[straight.Inst], u *engine.Uop[straight.Inst]) {
	h := u.Inst.Hints()
	if h.Call {
		c.RAS.Push(u.PC + 4)
	}
	if h.Return {
		c.RAS.Pop()
	}
}

func (p *policy) CommitSerialize(c *engine.Core[straight.Inst], u *engine.Uop[straight.Inst]) error {
	if p.emu.PC() != u.PC {
		return fmt.Errorf("straightcore: sys desync: core pc=%#x emu pc=%#x", u.PC, p.emu.PC()) //lint:alloc cross-validation abort; the run ends here
	}
	p.emu.TraceFn = p.sysTraceFn
	p.emu.Step()
	p.emu.TraceFn = nil
	if done, code := p.emu.Exited(); done {
		c.Exited = true
		c.ExitCode = code
	}
	c.PRF[u.Dest] = p.sysRes
	c.PRFReady[u.Dest] = c.Cycle
	c.Wake(u.Dest, c.Cycle)
	return nil
}

func (p *policy) CommitRetire(c *engine.Core[straight.Inst], u *engine.Uop[straight.Inst], xval bool) error {
	if xval {
		if p.emu.PC() != u.PC {
			return fmt.Errorf("straightcore: retire desync at seq %d: core pc=%#x emu pc=%#x", u.Seq, u.PC, p.emu.PC()) //lint:alloc cross-validation abort; the run ends here
		}
		p.emu.TraceFn = p.xvalTraceFn
		p.emu.Step()
		p.emu.TraceFn = nil
		if u.Dest >= 0 && c.PRF[u.Dest] != p.wantRet.Result {
			return fmt.Errorf("straightcore: value desync at pc=%#x (%v): core=%#x emu=%#x", //lint:alloc cross-validation abort; the run ends here
				u.PC, u.Inst, c.PRF[u.Dest], p.wantRet.Result) //lint:alloc cross-validation abort; the run ends here
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

func (p *policy) OnRetire(c *engine.Core[straight.Inst], u *engine.Uop[straight.Inst], r *uarch.Retirement) {
	if r != nil && u.Dest >= 0 {
		r.HasValue = true
		r.Value = c.PRF[u.Dest]
	}
}

func (p *policy) DispatchIdleTail(c *engine.Core[straight.Inst], inst straight.Inst) (uint64, bool) {
	return 0, false // distance-based operand determination never blocks
}

// DeadlockDump renders the pipeline state for deadlock diagnostics.
//
//lint:coldpath deadlock diagnostics, produced once when the run is already failing
func (p *policy) DeadlockDump(c *engine.Core[straight.Inst]) string {
	s := fmt.Sprintf("rob=%d iq=%d (awake=%d) exec=%d feq=%d rp=%d fetchPC=%#x halted=%v stall=%d renameBlock=%d serializing=%v\n",
		c.ROB.Len(), c.IQCount, len(c.IQAwake), len(c.Executing), c.FEQueueLen(), p.rp,
		c.FetchPC, c.FetchHalted, c.FetchStallUntil, c.RenameBlock, c.Serializing)
	if c.ROB.Len() > 0 {
		u := c.ROB.Front()
		s += fmt.Sprintf("rob head: seq=%d pc=%#x %v class=%v completed=%v squashed=%v readyAt=%d state=%d\n",
			u.Seq, u.PC, u.Inst, u.Class, u.Completed, u.Squashed, u.ReadyAt, u.State)
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

func rdy(c *engine.Core[straight.Inst], r int32) int64 {
	if r < 0 {
		return 0
	}
	return c.PRFReady[r]
}

func classOf(inst straight.Inst) uarch.Class {
	switch inst.Op.Class() {
	case straight.ClassMul:
		return uarch.ClassMul
	case straight.ClassDiv:
		return uarch.ClassDiv
	case straight.ClassLoad:
		return uarch.ClassLoad
	case straight.ClassStore:
		return uarch.ClassStore
	case straight.ClassBranch:
		return uarch.ClassBranch
	case straight.ClassJump:
		return uarch.ClassJump
	case straight.ClassSys:
		return uarch.ClassSys
	case straight.ClassNop:
		return uarch.ClassNop
	default:
		return uarch.ClassALU
	}
}
