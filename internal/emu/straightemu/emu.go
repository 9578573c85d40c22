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
	"fmt"
	"io"
	"strconv"

	"straight/internal/isa/straight"
	"straight/internal/program"
)

// FaultKind classifies an architectural fault so callers (in particular
// the differential fuzzer's oracle stack) can distinguish a malformed
// program or a generator bug from a genuine simulator divergence.
type FaultKind uint8

const (
	// FaultFetch: instruction fetch outside text or misaligned PC.
	FaultFetch FaultKind = iota
	// FaultDecode: undecodable instruction word or unimplemented opcode.
	FaultDecode
	// FaultStrictBound (strict mode): a source read beyond the distance
	// bound.
	FaultStrictBound
	// FaultStrictUninit (strict mode): a source read of a slot no
	// instruction has written yet.
	FaultStrictUninit
	// FaultMisaligned: misaligned data access or jump target.
	FaultMisaligned
	// FaultBadSys: unknown SYS function code.
	FaultBadSys
	// FaultLimit: the Run instruction limit was reached without exit.
	FaultLimit
)

var faultKindNames = [...]string{
	FaultFetch:        "fetch",
	FaultDecode:       "decode",
	FaultStrictBound:  "strict-over-bound",
	FaultStrictUninit: "strict-uninitialized",
	FaultMisaligned:   "misaligned",
	FaultBadSys:       "bad-sys",
	FaultLimit:        "insn-limit",
}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Fault is an architectural execution fault (bad fetch, bad opcode,
// distance beyond the window, misaligned access).
type Fault struct {
	Kind  FaultKind
	PC    uint32
	Count uint64
	Msg   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("straightemu: %s fault at pc=%#08x insn#%d: %s", f.Kind, f.PC, f.Count, f.Msg)
}

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

// Machine is a STRAIGHT architectural machine.
type Machine struct {
	image *program.Image
	mem   *program.Memory

	pc    uint32
	sp    uint32
	count uint64 // dynamic instruction count == destination register id
	ring  [ringSize]uint32

	exited   bool
	exitCode int32

	out        io.Writer //lint:resetless output attachment, survives Reset by design
	ioBuf      []byte    // reusable console-output buffer (keeps syscalls allocation-free)
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
	m := &Machine{
		image: im,
		mem:   program.NewMemory(),
		pc:    im.Entry,
		sp:    program.DefaultStackTop,
		out:   io.Discard,
	}
	m.mem.LoadImage(im)
	m.predecode()
	return m
}

// predecode decodes every text word once. Words that fail to decode
// (data or padding placed in text) are marked invalid; Step falls back
// to the real decoder there, reproducing the exact fault. Fresh slices
// are allocated on every rebuild so clones sharing the old cache stay
// consistent.
func (m *Machine) predecode() {
	dec := make([]straight.Inst, len(m.image.Text))
	ok := make([]bool, len(m.image.Text))
	for i, w := range m.image.Text {
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
	m.sp = program.DefaultStackTop
	m.count = 0
	m.ring = [ringSize]uint32{}
	m.exited = false
	m.exitCode = 0
	m.ioBuf = m.ioBuf[:0]
	m.stats = Stats{}
	m.TraceFn = nil
}

// SetOutput directs console syscall output (SysPutc etc.) to w.
func (m *Machine) SetOutput(w io.Writer) { m.out = w }

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

// Mem exposes the machine memory (for test setup and inspection).
func (m *Machine) Mem() *program.Memory { return m.mem }

// PC returns the current program counter.
//
//lint:hotpath
func (m *Machine) PC() uint32 { return m.pc }

// SP returns the current stack pointer.
func (m *Machine) SP() uint32 { return m.sp }

// InstCount returns the dynamic instruction count.
func (m *Machine) InstCount() uint64 { return m.count }

// Exited reports whether the program executed SYS exit, and its code.
//
//lint:hotpath
func (m *Machine) Exited() (bool, int32) { return m.exited, m.exitCode }

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
	return m.ring[(m.count-uint64(distance))&(ringSize-1)]
}

//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fault(kind FaultKind, msg string, args ...any) error {
	return &Fault{Kind: kind, PC: m.pc, Count: m.count, Msg: fmt.Sprintf(msg, args...)}
}

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
	if uint64(d) > m.count {
		return m.fault(FaultStrictUninit, "strict: %s reads [%d] but only %d instruction(s) have executed (never-written slot)",
			op, d, m.count)
	}
	return nil
}

// fetchFault reports a fetch from a misaligned PC or one outside text,
// with the image's own fetch error as the message.
//
//lint:coldpath fault construction; a fault aborts the run
func (m *Machine) fetchFault() error {
	_, err := m.image.FetchWord(m.pc)
	return m.fault(FaultFetch, "%v", err)
}

// Step executes one instruction. It returns io.EOF after SYS exit.
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
	if !m.decOK[i] {
		_, err := straight.Decode(m.image.Text[i])
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
	nextPC := m.pc + program.InstructionBytes
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
		result = straight.ExtendLoad(op, m.mem.Load(addr, width))
		m.stats.Loads++
	case straight.ClassStore:
		addr := m.read(inst.Src1) + uint32(inst.Imm)
		memAddr = addr
		val := m.read(inst.Src2)
		width := straight.StoreWidth(op)
		if addr%uint32(width) != 0 {
			return m.fault(FaultMisaligned, "misaligned %s at address %#08x", op, addr)
		}
		m.mem.Store(addr, val, width)
		result = val // stores return the stored value (paper §III-A)
		m.stats.Stores++
	case straight.ClassBranch:
		v := m.read(inst.Src1)
		taken := straight.BranchTaken(op, v)
		m.stats.Branches++
		if taken {
			m.stats.TakenBranches++
			nextPC = m.pc + uint32(inst.Imm)*program.InstructionBytes
			result = 1
		}
	case straight.ClassJump:
		switch op {
		case straight.J:
			nextPC = m.pc + uint32(inst.Imm)*program.InstructionBytes
		case straight.JAL:
			result = m.pc + program.InstructionBytes
			nextPC = m.pc + uint32(inst.Imm)*program.InstructionBytes
		case straight.JR:
			nextPC = m.read(inst.Src1)
		case straight.JALR:
			result = m.pc + program.InstructionBytes
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

	m.ring[m.count&(ringSize-1)] = result
	m.count++
	prevPC := m.pc
	m.pc = nextPC
	m.stats.Retired[op]++
	if m.TraceFn != nil {
		m.TraceFn(Retired{Count: m.count - 1, PC: prevPC, Inst: inst, Result: result, NextPC: nextPC, SP: m.sp, MemAddr: memAddr})
	}
	if m.exited {
		return io.EOF
	}
	return nil
}

// syscall executes a SYS instruction. Console output is formatted into a
// reusable buffer instead of fmt (whose interface boxing allocates on
// every call — syscalls sit on the cross-validated retire path).
func (m *Machine) syscall(inst straight.Inst) (uint32, error) {
	switch inst.Imm {
	case straight.SysExit:
		m.exitCode = int32(m.read(inst.Src1))
		m.exited = true
		return 0, nil
	case straight.SysPutc:
		m.writeByte(byte(m.read(inst.Src1)))
		return 0, nil
	case straight.SysPuti:
		m.writeNum(int64(int32(m.read(inst.Src1))), 10)
		return 0, nil
	case straight.SysPutu:
		m.writeUnum(uint64(m.read(inst.Src1)), 10)
		return 0, nil
	case straight.SysPutx:
		m.writeUnum(uint64(m.read(inst.Src1)), 16)
		return 0, nil
	case straight.SysCycle:
		return uint32(m.count), nil
	}
	return 0, m.fault(FaultBadSys, "unknown SYS function %d", inst.Imm)
}

func (m *Machine) writeByte(b byte) {
	if m.ioBuf == nil {
		m.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
	}
	m.ioBuf = append(m.ioBuf[:0], b)
	m.out.Write(m.ioBuf)
}

func (m *Machine) writeNum(v int64, base int) {
	if m.ioBuf == nil {
		m.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
	}
	m.ioBuf = strconv.AppendInt(m.ioBuf[:0], v, base)
	m.out.Write(m.ioBuf)
}

func (m *Machine) writeUnum(v uint64, base int) {
	if m.ioBuf == nil {
		m.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
	}
	m.ioBuf = strconv.AppendUint(m.ioBuf[:0], v, base)
	m.out.Write(m.ioBuf)
}

// Clone returns an independent copy of the architectural state (fresh
// statistics, discarded output) for oracle replay.
func (m *Machine) Clone() *Machine {
	n := &Machine{
		image:    m.image,
		mem:      m.mem.Clone(),
		pc:       m.pc,
		sp:       m.sp,
		count:    m.count,
		ring:     m.ring,
		exited:   m.exited,
		exitCode: m.exitCode,
		out:      io.Discard,
		dec:      m.dec,
		decOK:    m.decOK,
	}
	return n
}

// Checkpoint is an opaque snapshot of the architectural state (PC, SP,
// dynamic count, result window, memory, exit status). Statistics and the
// output writer are not part of the snapshot: a restored machine keeps
// accumulating into the same Stats and writing to the same output.
type Checkpoint struct {
	pc, sp   uint32
	count    uint64
	ring     [ringSize]uint32
	mem      *program.Memory
	exited   bool
	exitCode int32
}

// Count returns the dynamic instruction count at which the checkpoint
// was taken.
func (c *Checkpoint) Count() uint64 { return c.count }

// PC returns the checkpointed program counter.
func (c *Checkpoint) PC() uint32 { return c.pc }

// SP returns the checkpointed stack pointer.
func (c *Checkpoint) SP() uint32 { return c.sp }

// Mem exposes the checkpointed memory. Callers must treat it as
// read-only: the checkpoint stays valid for further Restore calls.
func (c *Checkpoint) Mem() *program.Memory { return c.mem }

// Exited reports the checkpointed exit status.
func (c *Checkpoint) Exited() (bool, int32) { return c.exited, c.exitCode }

// Checkpoint captures the architectural state so execution can later be
// rewound with Restore. The snapshot is independent of the machine: it
// stays valid however far execution proceeds, and can be restored any
// number of times (the lockstep checker uses periodic checkpoints to
// replay the window leading up to a divergence).
func (m *Machine) Checkpoint() *Checkpoint {
	return &Checkpoint{
		pc: m.pc, sp: m.sp, count: m.count, ring: m.ring,
		mem: m.mem.Clone(), exited: m.exited, exitCode: m.exitCode,
	}
}

// Restore rewinds the machine to a checkpoint taken earlier on the same
// image, reusing the machine's page frames rather than reallocating.
// The checkpoint remains valid for further Restore calls.
func (m *Machine) Restore(c *Checkpoint) {
	m.pc, m.sp, m.count, m.ring = c.pc, c.sp, c.count, c.ring
	m.mem.CopyFrom(c.mem)
	m.exited, m.exitCode = c.exited, c.exitCode
}

// Run executes until SYS exit, a fault, or maxInsns instructions.
// It returns the number of instructions executed. Reaching the
// instruction limit returns an error: benchmarks must terminate via
// SYS exit so truncated runs are never mistaken for results.
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

// RunUntil executes until the dynamic instruction count reaches target,
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
