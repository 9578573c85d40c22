// Package riscvemu implements the architectural (functional) model of
// RV32IM used to validate the superscalar baseline: the golden reference
// for the RISC-V compiler backend and the SS cycle core.
package riscvemu

import (
	"fmt"
	"io"
	"strconv"

	"straight/internal/isa/riscv"
	"straight/internal/program"
)

// FaultKind classifies an architectural fault so callers (in particular
// the differential fuzzer's oracle stack) can distinguish a malformed
// program from a genuine simulator divergence.
type FaultKind uint8

const (
	// FaultFetch: instruction fetch outside text or misaligned PC.
	FaultFetch FaultKind = iota
	// FaultDecode: illegal instruction word or EBREAK.
	FaultDecode
	// FaultMisaligned: misaligned data access or jump target.
	FaultMisaligned
	// FaultBadSys: unknown syscall function code.
	FaultBadSys
	// FaultLimit: the Run instruction limit was reached without exit.
	FaultLimit
)

var faultKindNames = [...]string{
	FaultFetch:      "fetch",
	FaultDecode:     "decode",
	FaultMisaligned: "misaligned",
	FaultBadSys:     "bad-sys",
	FaultLimit:      "insn-limit",
}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Fault is an architectural execution fault.
type Fault struct {
	Kind  FaultKind
	PC    uint32
	Count uint64
	Msg   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("riscvemu: %s fault at pc=%#08x insn#%d: %s", f.Kind, f.PC, f.Count, f.Msg)
}

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
	image *program.Image
	mem   *program.Memory

	pc    uint32
	regs  [32]uint32
	count uint64

	exited   bool
	exitCode int32

	out   io.Writer //lint:resetless output attachment, survives Reset by design
	ioBuf []byte    // reusable console-output buffer (keeps syscalls allocation-free)
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
	m := &Machine{
		image: im,
		mem:   program.NewMemory(),
		pc:    im.Entry,
		out:   io.Discard,
	}
	m.regs[riscv.RegSP] = program.DefaultStackTop
	m.mem.LoadImage(im)
	m.predecode()
	return m
}

// predecode decodes every text word once. A fresh slice is allocated on
// every rebuild so clones sharing the old cache stay consistent.
func (m *Machine) predecode() {
	dec := make([]riscv.Inst, len(m.image.Text))
	for i, w := range m.image.Text {
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
		img = m.image
	}
	rebuild := img != m.image || m.dec == nil
	m.image = img
	if rebuild {
		m.predecode()
	}
	m.mem.Reset()
	m.mem.LoadImage(img)
	m.pc = img.Entry
	m.regs = [32]uint32{}
	m.regs[riscv.RegSP] = program.DefaultStackTop
	m.count = 0
	m.exited = false
	m.exitCode = 0
	m.ioBuf = m.ioBuf[:0]
	m.stats = Stats{}
	m.TraceFn = nil
}

// SetOutput directs console syscall output to w.
func (m *Machine) SetOutput(w io.Writer) { m.out = w }

// Mem exposes the machine memory.
func (m *Machine) Mem() *program.Memory { return m.mem }

// PC returns the current program counter.
//
//lint:hotpath
func (m *Machine) PC() uint32 { return m.pc }

// Reg returns register x[i].
//
//lint:hotpath
func (m *Machine) Reg(i int) uint32 { return m.regs[i] }

// InstCount returns the retired instruction count.
func (m *Machine) InstCount() uint64 { return m.count }

// Exited reports whether the program executed the exit syscall.
//
//lint:hotpath
func (m *Machine) Exited() (bool, int32) { return m.exited, m.exitCode }

// Stats returns the accumulated statistics.
func (m *Machine) Stats() *Stats { return &m.stats }

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fault(kind FaultKind, msg string, args ...any) error {
	return &Fault{Kind: kind, PC: m.pc, Count: m.count, Msg: fmt.Sprintf(msg, args...)}
}

// fetchFault reports a fetch from a misaligned PC or one outside text,
// with the image's own fetch error as the message.
//
//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fetchFault() error {
	_, err := m.image.FetchWord(m.pc)
	return m.fault(FaultFetch, "%v", err)
}

// Step executes one instruction. It returns io.EOF after exit.
//
//lint:hotpath
func (m *Machine) Step() error {
	if m.exited {
		return io.EOF
	}
	i := (m.pc - m.image.TextBase) / program.InstructionBytes
	if m.pc%program.InstructionBytes != 0 || uint64(i) >= uint64(len(m.dec)) {
		return m.fetchFault()
	}
	inst := m.dec[i]
	op := inst.Op
	if op == riscv.ILLEGAL {
		return m.fault(FaultDecode, "illegal instruction %#08x", m.image.Text[i])
	}

	rs1 := m.regs[inst.Rs1]
	rs2 := m.regs[inst.Rs2]
	nextPC := m.pc + 4
	var result uint32
	var memAddr uint32
	writes := inst.WritesRd()

	switch op.Class() {
	case riscv.ClassALU, riscv.ClassMul, riscv.ClassDiv:
		switch op {
		case riscv.LUI:
			result = uint32(inst.Imm)
		case riscv.AUIPC:
			result = m.pc + uint32(inst.Imm)
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
		result = riscv.ExtendLoad(op, m.mem.Load(addr, width))
		m.stats.Loads++
	case riscv.ClassStore:
		addr := rs1 + uint32(inst.Imm)
		memAddr = addr
		width := riscv.StoreWidth(op)
		if addr%uint32(width) != 0 {
			return m.fault(FaultMisaligned, "misaligned %s at %#08x", op, addr)
		}
		m.mem.Store(addr, rs2, width)
		m.stats.Stores++
	case riscv.ClassBranch:
		m.stats.Branches++
		if riscv.BranchTaken(op, rs1, rs2) {
			m.stats.TakenBranches++
			nextPC = m.pc + uint32(inst.Imm)
		}
	case riscv.ClassJump:
		result = m.pc + 4
		if op == riscv.JAL {
			nextPC = m.pc + uint32(inst.Imm)
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
			result = uint32(m.count)
			writes = true
			inst.Rd = riscv.RegA0
		}
	}

	if writes && inst.Rd != 0 {
		m.regs[inst.Rd] = result
	}
	prevPC := m.pc
	m.pc = nextPC
	m.count++
	m.stats.Retired[op]++
	if m.TraceFn != nil {
		m.TraceFn(Retired{Count: m.count - 1, PC: prevPC, Inst: inst, Result: result, NextPC: nextPC, MemAddr: memAddr})
	}
	if m.exited {
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
		m.exitCode = int32(arg)
		m.exited = true
	case SysPutc:
		if m.ioBuf == nil {
			m.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
		}
		m.ioBuf = append(m.ioBuf[:0], byte(arg))
		m.out.Write(m.ioBuf)
	case SysPuti:
		if m.ioBuf == nil {
			m.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
		}
		m.ioBuf = strconv.AppendInt(m.ioBuf[:0], int64(int32(arg)), 10)
		m.out.Write(m.ioBuf)
	case SysPutu:
		if m.ioBuf == nil {
			m.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
		}
		m.ioBuf = strconv.AppendUint(m.ioBuf[:0], uint64(arg), 10)
		m.out.Write(m.ioBuf)
	case SysPutx:
		if m.ioBuf == nil {
			m.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
		}
		m.ioBuf = strconv.AppendUint(m.ioBuf[:0], uint64(arg), 16)
		m.out.Write(m.ioBuf)
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
	n := &Machine{
		image:    m.image,
		mem:      m.mem.Clone(),
		pc:       m.pc,
		regs:     m.regs,
		count:    m.count,
		exited:   m.exited,
		exitCode: m.exitCode,
		out:      io.Discard,
		dec:      m.dec,
	}
	return n
}

// Checkpoint is an opaque snapshot of the architectural state (PC,
// registers, count, memory, exit status). Statistics and the output
// writer are not part of the snapshot.
type Checkpoint struct {
	pc       uint32
	regs     [32]uint32
	count    uint64
	mem      *program.Memory
	exited   bool
	exitCode int32
}

// Count returns the retired instruction count at which the checkpoint
// was taken.
func (c *Checkpoint) Count() uint64 { return c.count }

// PC returns the checkpointed program counter.
func (c *Checkpoint) PC() uint32 { return c.pc }

// Reg returns checkpointed register x[i].
func (c *Checkpoint) Reg(i int) uint32 { return c.regs[i] }

// Mem exposes the checkpointed memory. Callers must treat it as
// read-only: the checkpoint stays valid for further Restore calls.
func (c *Checkpoint) Mem() *program.Memory { return c.mem }

// Exited reports the checkpointed exit status.
func (c *Checkpoint) Exited() (bool, int32) { return c.exited, c.exitCode }

// Checkpoint captures the architectural state so execution can later be
// rewound with Restore. The snapshot is independent of the machine and
// can be restored any number of times.
func (m *Machine) Checkpoint() *Checkpoint {
	return &Checkpoint{
		pc: m.pc, regs: m.regs, count: m.count,
		mem: m.mem.Clone(), exited: m.exited, exitCode: m.exitCode,
	}
}

// Restore rewinds the machine to a checkpoint taken earlier on the same
// image, reusing the machine's page frames rather than reallocating.
// The checkpoint remains valid for further Restore calls.
func (m *Machine) Restore(c *Checkpoint) {
	m.pc, m.regs, m.count = c.pc, c.regs, c.count
	m.mem.CopyFrom(c.mem)
	m.exited, m.exitCode = c.exited, c.exitCode
}

// Run executes until exit, a fault, or maxInsns instructions. Reaching
// the limit without exit is an error.
func (m *Machine) Run(maxInsns uint64) (uint64, error) {
	start := m.count
	for m.count-start < maxInsns {
		if err := m.Step(); err != nil {
			if err == io.EOF {
				return m.count - start, nil
			}
			return m.count - start, err
		}
	}
	return m.count - start, m.fault(FaultLimit, "instruction limit %d reached without exit", maxInsns)
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
	for m.count < target && !m.exited {
		if err := m.Step(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}
