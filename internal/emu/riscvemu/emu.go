// Package riscvemu implements the architectural (functional) model of
// RV32IM used to validate the superscalar baseline: the golden reference
// for the RISC-V compiler backend and the SS cycle core.
package riscvemu

import (
	"io"

	"straight/internal/emu"
	"straight/internal/isa/riscv"
	"straight/internal/program"
	"straight/internal/uarch"
)

// Fault and its kinds are the emulators' shared fault (internal/emu).
type (
	Fault     = emu.Fault
	FaultKind = emu.FaultKind
)

const (
	FaultFetch      = emu.FaultFetch
	FaultDecode     = emu.FaultDecode
	FaultMisaligned = emu.FaultMisaligned
	FaultBadSys     = emu.FaultBadSys
	FaultLimit      = emu.FaultLimit
)

// Syscall function codes, passed in a7 with the argument in a0. They
// mirror the STRAIGHT SYS functions so the same workload source produces
// identical console output on both ISAs.
const (
	SysExit  = 0
	SysPutc  = 1
	SysPuti  = 2
	SysCycle = 3
	SysPutu  = 4
	SysPutx  = 5
)

// Stats accumulates architectural execution statistics.
type Stats struct {
	Retired       [riscv.NumOps]uint64
	Branches      uint64
	TakenBranches uint64
	Loads         uint64
	Stores        uint64
}

// Total returns the total retired instruction count.
func (s *Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Retired {
		t += n
	}
	return t
}

// Machine is an RV32IM architectural machine.
type Machine struct {
	emu.Frame

	regs  [32]uint32
	stats Stats

	// dec caches the decode of every text word so Step pays the decoder
	// once per static instruction instead of once per dynamic one — the
	// dominant cost of the architectural loop when it serves as the
	// sampled simulator's fast-forward engine (DESIGN.md §16). riscv
	// decode is total (bad words decode to ILLEGAL), so no validity side
	// array is needed. Replaced wholesale, never mutated, so Clone shares.
	dec []riscv.Inst //lint:resetless predecoded text cache, keyed to the image; Reset rebuilds it on image change

	// TraceFn, when non-nil, receives every retired instruction.
	TraceFn func(Retired)
}

// Retired describes one architecturally executed instruction.
type Retired struct {
	Count  uint64
	PC     uint32
	Inst   riscv.Inst
	Result uint32 // value written to Rd (0 if none)
	NextPC uint32
	// MemAddr is the effective address of a load or store (else 0).
	MemAddr uint32
}

// New creates a machine for the image with an isolated memory copy.
// SP (x2) starts at the top of the stack.
func New(im *program.Image) *Machine {
	m := &Machine{Frame: emu.NewFrame(emu.RISCV, im)}
	m.regs[riscv.RegSP] = program.DefaultStackTop
	m.predecode()
	return m
}

// predecode decodes every text word once. A fresh slice is allocated on
// every rebuild so clones sharing the old cache stay consistent.
func (m *Machine) predecode() {
	dec := make([]riscv.Inst, len(m.Image.Text))
	for i, w := range m.Image.Text {
		dec[i] = riscv.Decode(w)
	}
	m.dec = dec
}

// Reset returns the machine to power-on state for img (nil = rerun the
// current image), reusing the sparse memory's page frames and the I/O
// buffer. Output is configuration and survives; TraceFn is cleared (it
// is re-armed per use).
func (m *Machine) Reset(img *program.Image) {
	if img == nil {
		img = m.Image
	}
	rebuild := img != m.Image || m.dec == nil
	m.Frame.Reset(img)
	if rebuild {
		m.predecode()
	}
	m.regs = [32]uint32{}
	m.regs[riscv.RegSP] = program.DefaultStackTop
	m.stats = Stats{}
	m.TraceFn = nil
}

// Reg returns register x[i].
//
//lint:hotpath
func (m *Machine) Reg(i int) uint32 { return m.regs[i] }

// Stats returns the accumulated statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

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

// Step executes one instruction. It returns io.EOF after exit.
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
	inst := m.dec[i]
	op := inst.Op
	if op == riscv.ILLEGAL {
		return m.fault(FaultDecode, "illegal instruction %#08x", m.Image.Text[i])
	}

	rs1 := m.regs[inst.Rs1]
	rs2 := m.regs[inst.Rs2]
	nextPC := m.PCReg + 4
	var result uint32
	var memAddr uint32
	writes := inst.WritesRd()

	switch op.Class() {
	case riscv.ClassALU, riscv.ClassMul, riscv.ClassDiv:
		switch op {
		case riscv.LUI:
			result = uint32(inst.Imm)
		case riscv.AUIPC:
			result = m.PCReg + uint32(inst.Imm)
		case riscv.FENCE:
			// no-op
		default:
			b := rs2
			if isImmOp(op) {
				b = uint32(inst.Imm)
			}
			result = riscv.Eval(op, rs1, b)
		}
	case riscv.ClassLoad:
		addr := rs1 + uint32(inst.Imm)
		memAddr = addr
		width, _ := riscv.LoadWidth(op)
		if addr%uint32(width) != 0 {
			return m.fault(FaultMisaligned, "misaligned %s at %#08x", op, addr)
		}
		result = riscv.ExtendLoad(op, m.Memory.Load(addr, width))
		m.stats.Loads++
	case riscv.ClassStore:
		addr := rs1 + uint32(inst.Imm)
		memAddr = addr
		width := riscv.StoreWidth(op)
		if addr%uint32(width) != 0 {
			return m.fault(FaultMisaligned, "misaligned %s at %#08x", op, addr)
		}
		m.Memory.Store(addr, rs2, width)
		m.stats.Stores++
	case riscv.ClassBranch:
		m.stats.Branches++
		if riscv.BranchTaken(op, rs1, rs2) {
			m.stats.TakenBranches++
			nextPC = m.PCReg + uint32(inst.Imm)
		}
	case riscv.ClassJump:
		result = m.PCReg + 4
		if op == riscv.JAL {
			nextPC = m.PCReg + uint32(inst.Imm)
		} else {
			nextPC = (rs1 + uint32(inst.Imm)) &^ 1
		}
		if nextPC%4 != 0 {
			return m.fault(FaultMisaligned, "jump to misaligned address %#08x", nextPC)
		}
	case riscv.ClassSys:
		if op == riscv.EBREAK {
			return m.fault(FaultDecode, "ebreak")
		}
		if err := m.syscall(); err != nil {
			return err
		}
		if m.regs[riscv.RegA7] == SysCycle {
			result = uint32(m.Count)
			writes = true
			inst.Rd = riscv.RegA0
		}
	}

	if writes && inst.Rd != 0 {
		m.regs[inst.Rd] = result
	}
	prevPC := m.PCReg
	m.PCReg = nextPC
	m.Count++
	m.stats.Retired[op]++
	if m.TraceFn != nil {
		m.TraceFn(Retired{Count: m.Count - 1, PC: prevPC, Inst: inst, Result: result, NextPC: nextPC, MemAddr: memAddr})
	}
	if m.Halted {
		return io.EOF
	}
	return nil
}

func isImmOp(op riscv.Op) bool {
	switch op {
	case riscv.ADDI, riscv.SLTI, riscv.SLTIU, riscv.XORI, riscv.ORI, riscv.ANDI,
		riscv.SLLI, riscv.SRLI, riscv.SRAI:
		return true
	}
	return false
}

func (m *Machine) syscall() error {
	fn := m.regs[riscv.RegA7]
	arg := m.regs[riscv.RegA0]
	switch fn {
	case SysExit:
		m.ExitCode = int32(arg)
		m.Halted = true
	case SysPutc:
		m.PutByte(byte(arg))
	case SysPuti:
		m.PutInt(int64(int32(arg)), 10)
	case SysPutu:
		m.PutUint(uint64(arg), 10)
	case SysPutx:
		m.PutUint(uint64(arg), 16)
	case SysCycle:
		// handled by caller (writes a0)
	default:
		return m.fault(FaultBadSys, "unknown syscall %d", fn)
	}
	return nil
}

// Clone returns an independent copy of the architectural state (fresh
// statistics, discarded output) for oracle replay.
func (m *Machine) Clone() *Machine {
	return &Machine{Frame: m.Frame.Clone(), regs: m.regs, dec: m.dec}
}

// Checkpoint captures the architectural state — the frame plus the 32
// registers — so execution can later be rewound with Restore. The
// snapshot is independent of the machine and can be restored any number
// of times.
func (m *Machine) Checkpoint() *emu.Checkpoint {
	c := m.Frame.Checkpoint()
	c.Regs = append([]uint32(nil), m.regs[:]...)
	return c
}

// Restore rewinds the machine to a RISC-V checkpoint taken earlier on
// the same image, reusing the machine's page frames rather than
// reallocating. The checkpoint remains valid for further Restore calls.
func (m *Machine) Restore(c *emu.Checkpoint) {
	m.Frame.Restore(c)
	copy(m.regs[:], c.Regs)
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
		case riscv.ClassBranch:
			w.Branch(r.PC, r.NextPC != r.PC+program.InstructionBytes)
		case riscv.ClassJump:
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

// Run executes until exit, a fault, or maxInsns instructions. Reaching
// the limit without exit is an error.
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

// RunUntil executes until the retired instruction count reaches target,
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
