// Package straightemu implements the architectural (functional) model of
// the STRAIGHT ISA. It is the golden reference: the compiler test suite
// checks generated code against it, and the cycle-accurate core
// cross-validates every retired instruction against it.
//
// Architecturally, STRAIGHT state is: the PC, the stack pointer SP, the
// memory, and the results of the last MaxDistance dynamically executed
// instructions (a sliding window — each instruction writes exactly one new
// value and the oldest becomes dead). The emulator models the window as a
// ring buffer indexed by the dynamic instruction count.
package straightemu

import (
	"io"

	"straight/internal/emu"
	"straight/internal/isa/straight"
	"straight/internal/program"
	"straight/internal/uarch"
)

// Fault and its kinds are the emulators' shared fault (internal/emu).
type (
	Fault     = emu.Fault
	FaultKind = emu.FaultKind
)

const (
	FaultFetch        = emu.FaultFetch
	FaultDecode       = emu.FaultDecode
	FaultStrictBound  = emu.FaultStrictBound
	FaultStrictUninit = emu.FaultStrictUninit
	FaultMisaligned   = emu.FaultMisaligned
	FaultBadSys       = emu.FaultBadSys
	FaultLimit        = emu.FaultLimit
)

// ringSize is the result-window ring size; it must exceed MaxDistance and
// be a power of two so the index math is a mask.
const ringSize = 2048

// Stats accumulates architectural execution statistics used by the
// instruction-mix and operand-distance experiments (paper Fig 15 and 16).
type Stats struct {
	// Retired counts executed instructions per opcode.
	Retired [straight.NumOps]uint64
	// DistanceHist[d] counts source operands read at distance d
	// (distance 0 — the zero register — is excluded, matching the
	// paper's "distance between producer and consumer" metric).
	DistanceHist [straight.MaxDistance + 1]uint64
	// MaxObservedDistance is the largest non-zero distance read.
	MaxObservedDistance uint16
	// Branches and TakenBranches count conditional branches.
	Branches      uint64
	TakenBranches uint64
	// Loads and Stores count memory operations.
	Loads  uint64
	Stores uint64
}

// Total returns the total retired instruction count in the stats.
func (s *Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Retired {
		t += n
	}
	return t
}

// Machine is a STRAIGHT architectural machine. The frame's Count is the
// dynamic instruction count, which is also the destination register id.
type Machine struct {
	emu.Frame

	sp   uint32
	ring [ringSize]uint32

	stats      Stats
	collectHot bool //lint:resetless profiling configuration, survives Reset by design

	// strictBound, when non-zero, makes Step fault on any source read
	// beyond that distance or of a slot no instruction has written yet —
	// the dynamic counterpart of the static checks in internal/sverify.
	strictBound uint16 //lint:resetless checking configuration, survives Reset by design

	// dec/decOK cache the decode of every text word so Step pays the
	// decoder once per static instruction instead of once per dynamic one
	// — the dominant cost of the architectural loop when it serves as the
	// sampled simulator's fast-forward engine (DESIGN.md §16). Slices are
	// replaced wholesale (never mutated in place) so Clone can share them.
	dec   []straight.Inst //lint:resetless predecoded text cache, keyed to the image; Reset rebuilds it on image change
	decOK []bool          //lint:resetless predecoded text validity, rebuilt together with dec

	// TraceFn, when non-nil, receives every retired instruction. The cycle
	// simulator's cross-validation and the examples' tracing hook in here.
	TraceFn func(Retired)
}

// Retired describes one architecturally executed instruction.
type Retired struct {
	Count  uint64 // dynamic instruction number (destination id)
	PC     uint32
	Inst   straight.Inst
	Result uint32
	NextPC uint32
	SP     uint32 // SP after the instruction
	// MemAddr is the effective address of a load or store (else 0).
	MemAddr uint32
}

// New creates a machine for the image with an isolated memory copy.
func New(im *program.Image) *Machine {
	m := &Machine{Frame: emu.NewFrame(emu.STRAIGHT, im), sp: program.DefaultStackTop}
	m.predecode()
	return m
}

// predecode decodes every text word once. Words that fail to decode
// (data or padding placed in text) are marked invalid; Step falls back
// to the real decoder there, reproducing the exact fault. Fresh slices
// are allocated on every rebuild so clones sharing the old cache stay
// consistent.
func (m *Machine) predecode() {
	dec := make([]straight.Inst, len(m.Image.Text))
	ok := make([]bool, len(m.Image.Text))
	for i, w := range m.Image.Text {
		if inst, err := straight.Decode(w); err == nil {
			dec[i], ok[i] = inst, true
		}
	}
	m.dec, m.decOK = dec, ok
}

// Reset returns the machine to power-on state for img (nil = rerun the
// current image), reusing the sparse memory's page frames and the I/O
// buffer. Output, strict mode, and hot-PC collection are configuration
// and survive; TraceFn is cleared (it is re-armed per use).
func (m *Machine) Reset(img *program.Image) {
	if img == nil {
		img = m.Image
	}
	rebuild := img != m.Image || m.dec == nil
	m.Frame.Reset(img)
	if rebuild {
		m.predecode()
	}
	m.sp = program.DefaultStackTop
	m.ring = [ringSize]uint32{}
	m.stats = Stats{}
	m.TraceFn = nil
}

// SetStrict enables strict mode: any source operand read at a distance
// greater than maxDist, or reaching a slot no instruction has written
// yet (before program start), faults instead of silently reading stale
// or zero ring contents. maxDist 0 selects the ISA maximum. Strict mode
// turns the compiler contract the hardware assumes into a dynamic
// assertion, cross-validating the static verifier.
func (m *Machine) SetStrict(maxDist int) {
	if maxDist <= 0 || maxDist > straight.MaxDistance {
		maxDist = straight.MaxDistance
	}
	m.strictBound = uint16(maxDist)
}

// SP returns the current stack pointer.
func (m *Machine) SP() uint32 { return m.sp }

// Stats returns the accumulated statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

// Reg reads the value produced by the instruction at the given distance
// from the *next* instruction to execute (distance 1 = most recently
// executed). Distance 0 reads zero.
//
//lint:hotpath
func (m *Machine) Reg(distance uint16) uint32 {
	if distance == 0 {
		return 0
	}
	return m.ring[(m.Count-uint64(distance))&(ringSize-1)]
}

// fault and fetchFault build a fault at the current instruction
// (emu.Frame). They are local cold-path wrappers so that Step's fault
// branches stay off the hot-path allocation budget.
//
//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fault(kind FaultKind, msg string, args ...any) error {
	return m.Fault(kind, msg, args...)
}

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fetchFault() error { return m.FetchFault() }

// read returns a source operand at the given distance and accumulates the
// operand-distance statistics. It is a method rather than a per-Step
// closure so the architectural step path stays allocation-free.
func (m *Machine) read(d uint16) uint32 {
	if d != 0 {
		m.stats.DistanceHist[d]++
		if d > m.stats.MaxObservedDistance {
			m.stats.MaxObservedDistance = d
		}
	}
	return m.Reg(d)
}

// strictCheck validates the instruction's source distances before it
// executes (strict mode).
func (m *Machine) strictCheck(inst straight.Inst) error {
	switch inst.Op.Format() {
	case straight.FmtR, straight.FmtS:
		if err := m.checkDistance(inst.Op, inst.Src1); err != nil {
			return err
		}
		return m.checkDistance(inst.Op, inst.Src2)
	case straight.FmtI, straight.FmtJR:
		return m.checkDistance(inst.Op, inst.Src1)
	}
	return nil
}

// checkDistance validates one source distance. A method rather than a
// per-strictCheck closure so the strict oracle loop stays
// allocation-free.
func (m *Machine) checkDistance(op straight.Op, d uint16) error {
	if d == 0 {
		return nil
	}
	if d > m.strictBound {
		return m.fault(FaultStrictBound, "strict: %s reads distance %d beyond bound %d", op, d, m.strictBound)
	}
	if uint64(d) > m.Count {
		return m.fault(FaultStrictUninit, "strict: %s reads [%d] but only %d instruction(s) have executed (never-written slot)",
			op, d, m.Count)
	}
	return nil
}

// Step executes one instruction. It returns io.EOF after SYS exit.
//
//lint:hotpath
func (m *Machine) Step() error {
	if m.Halted {
		return io.EOF
	}
	i := (m.PCReg - m.Image.TextBase) / program.InstructionBytes
	if m.PCReg%program.InstructionBytes != 0 || uint64(i) >= uint64(len(m.dec)) {
		return m.fetchFault()
	}
	if !m.decOK[i] {
		_, err := straight.Decode(m.Image.Text[i])
		return m.fault(FaultDecode, "%v", err)
	}
	inst := m.dec[i]
	if m.strictBound != 0 {
		if err := m.strictCheck(inst); err != nil {
			return err
		}
	}

	var result uint32
	var memAddr uint32
	nextPC := m.PCReg + program.InstructionBytes
	op := inst.Op
	switch op.Class() {
	case straight.ClassNop:
		// result 0
	case straight.ClassALU, straight.ClassMul, straight.ClassDiv:
		switch {
		case op == straight.RMOV:
			result = m.read(inst.Src1)
		case op == straight.SPADD:
			m.sp += uint32(inst.Imm)
			result = m.sp
		case op == straight.LUI:
			result = straight.LUIValue(inst.Imm)
		case op.Format() == straight.FmtR:
			result = straight.EvalALU(op, m.read(inst.Src1), m.read(inst.Src2))
		default:
			result = straight.EvalALUImm(op, m.read(inst.Src1), inst.Imm)
		}
	case straight.ClassLoad:
		addr := m.read(inst.Src1) + uint32(inst.Imm)
		memAddr = addr
		width, _ := straight.LoadWidth(op)
		if addr%uint32(width) != 0 {
			return m.fault(FaultMisaligned, "misaligned %s at address %#08x", op, addr)
		}
		result = straight.ExtendLoad(op, m.Memory.Load(addr, width))
		m.stats.Loads++
	case straight.ClassStore:
		addr := m.read(inst.Src1) + uint32(inst.Imm)
		memAddr = addr
		val := m.read(inst.Src2)
		width := straight.StoreWidth(op)
		if addr%uint32(width) != 0 {
			return m.fault(FaultMisaligned, "misaligned %s at address %#08x", op, addr)
		}
		m.Memory.Store(addr, val, width)
		result = val // stores return the stored value (paper §III-A)
		m.stats.Stores++
	case straight.ClassBranch:
		v := m.read(inst.Src1)
		taken := straight.BranchTaken(op, v)
		m.stats.Branches++
		if taken {
			m.stats.TakenBranches++
			nextPC = m.PCReg + uint32(inst.Imm)*program.InstructionBytes
			result = 1
		}
	case straight.ClassJump:
		switch op {
		case straight.J:
			nextPC = m.PCReg + uint32(inst.Imm)*program.InstructionBytes
		case straight.JAL:
			result = m.PCReg + program.InstructionBytes
			nextPC = m.PCReg + uint32(inst.Imm)*program.InstructionBytes
		case straight.JR:
			nextPC = m.read(inst.Src1)
		case straight.JALR:
			result = m.PCReg + program.InstructionBytes
			nextPC = m.read(inst.Src1)
		}
		if nextPC%program.InstructionBytes != 0 {
			return m.fault(FaultMisaligned, "jump to misaligned address %#08x", nextPC)
		}
	case straight.ClassSys:
		var err error
		result, err = m.syscall(inst)
		if err != nil {
			return err
		}
	default:
		return m.fault(FaultDecode, "unimplemented opcode %v", op)
	}

	m.ring[m.Count&(ringSize-1)] = result
	m.Count++
	prevPC := m.PCReg
	m.PCReg = nextPC
	m.stats.Retired[op]++
	if m.TraceFn != nil {
		m.TraceFn(Retired{Count: m.Count - 1, PC: prevPC, Inst: inst, Result: result, NextPC: nextPC, SP: m.sp, MemAddr: memAddr})
	}
	if m.Halted {
		return io.EOF
	}
	return nil
}

// syscall executes a SYS instruction.
func (m *Machine) syscall(inst straight.Inst) (uint32, error) {
	switch inst.Imm {
	case straight.SysExit:
		m.ExitCode = int32(m.read(inst.Src1))
		m.Halted = true
		return 0, nil
	case straight.SysPutc:
		m.PutByte(byte(m.read(inst.Src1)))
		return 0, nil
	case straight.SysPuti:
		m.PutInt(int64(int32(m.read(inst.Src1))), 10)
		return 0, nil
	case straight.SysPutu:
		m.PutUint(uint64(m.read(inst.Src1)), 10)
		return 0, nil
	case straight.SysPutx:
		m.PutUint(uint64(m.read(inst.Src1)), 16)
		return 0, nil
	case straight.SysCycle:
		return uint32(m.Count), nil
	}
	return 0, m.fault(FaultBadSys, "unknown SYS function %d", inst.Imm)
}

// Clone returns an independent copy of the architectural state (fresh
// statistics, discarded output) for oracle replay.
func (m *Machine) Clone() *Machine {
	return &Machine{Frame: m.Frame.Clone(), sp: m.sp, ring: m.ring, dec: m.dec, decOK: m.decOK}
}

// Checkpoint captures the architectural state — the frame plus SP and
// the result window — so execution can later be rewound with Restore.
// The snapshot is independent of the machine: it stays valid however
// far execution proceeds, and can be restored any number of times (the
// lockstep checker uses periodic checkpoints to replay the window
// leading up to a divergence).
func (m *Machine) Checkpoint() *emu.Checkpoint {
	c := m.Frame.Checkpoint()
	c.SP = m.sp
	c.Regs = append([]uint32(nil), m.ring[:]...)
	return c
}

// Restore rewinds the machine to a STRAIGHT checkpoint taken earlier on
// the same image, reusing the machine's page frames rather than
// reallocating. The checkpoint remains valid for further Restore calls.
func (m *Machine) Restore(c *emu.Checkpoint) {
	m.Frame.Restore(c)
	m.sp = c.SP
	copy(m.ring[:], c.Regs)
}

// SetWarm arms (or, with nil, disarms) functional warming through
// TraceFn (core.Emulator).
func (m *Machine) SetWarm(w *uarch.WarmState) {
	if w == nil {
		m.TraceFn = nil
		return
	}
	m.TraceFn = func(r Retired) {
		w.Inst(r.PC)
		if r.MemAddr != 0 {
			w.Data(r.MemAddr)
		}
		switch r.Inst.Op.Class() {
		case straight.ClassBranch:
			w.Branch(r.PC, r.NextPC != r.PC+program.InstructionBytes)
		case straight.ClassJump:
			h := r.Inst.Hints()
			if h.Call {
				w.Call(r.PC + program.InstructionBytes)
			}
			if h.Return {
				w.Return()
			}
			if h.Indirect {
				w.Indirect(r.PC, r.NextPC)
			}
		}
	}
}

// Run executes until SYS exit, a fault, or maxInsns instructions.
// It returns the number of instructions executed. Reaching the
// instruction limit returns an error: benchmarks must terminate via
// SYS exit so truncated runs are never mistaken for results.
func (m *Machine) Run(maxInsns uint64) (uint64, error) {
	start := m.Count
	for m.Count-start < maxInsns {
		if err := m.Step(); err != nil {
			if err == io.EOF {
				return m.Count - start, nil
			}
			return m.Count - start, err
		}
	}
	return m.Count - start, m.fault(FaultLimit, "instruction limit %d reached without exit", maxInsns)
}

// RunUntil executes until the dynamic instruction count reaches target,
// the program exits, or a fault occurs. Unlike Run, stopping at the
// target is success, not an error: this is the fast-forward primitive of
// the sampled simulator (internal/sampling), which pauses execution at
// interval boundaries to take checkpoints. Step executes exactly one
// instruction, so the stop lands exactly on target.
//
//lint:hotpath
func (m *Machine) RunUntil(target uint64) error {
	for m.Count < target && !m.Halted {
		if err := m.Step(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}
