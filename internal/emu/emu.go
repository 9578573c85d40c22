// Package emu holds what the two functional emulators share. Paper §III
// defines STRAIGHT's architectural state as the PC, the stack pointer,
// memory and the last MaxDistance results; RV32IM's is the PC, 32
// registers and memory. So straightemu and riscvemu differ only in
// their register payload and Step: Frame is the common part (image,
// memory, PC, retired count, exit status, console), Fault the common
// fault, and Checkpoint snapshots a Frame together with an ISA's
// registers and encodes it canonically.
package emu

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"straight/internal/program"
)

// ISA identifies an emulator. It names the emulator in fault messages
// and selects the checkpoint's magic and header layout.
type ISA uint8

// The emulators.
const (
	STRAIGHT ISA = iota // straightemu
	RISCV               // riscvemu
)

var isas = [...]struct {
	name, magic string
	// sp: the header carries a stack pointer between pc and count.
	sp bool
}{
	STRAIGHT: {name: "straightemu", magic: "STRCKP1\x00", sp: true},
	RISCV:    {name: "riscvemu", magic: "RV32CKP1"},
}

// String returns the emulator's package name.
func (i ISA) String() string { return isas[i].name }

// FaultKind classifies an architectural fault so callers (in particular
// the differential fuzzer's oracle stack) can distinguish a malformed
// program or a generator bug from a genuine simulator divergence.
type FaultKind uint8

const (
	// FaultFetch: instruction fetch outside text or misaligned PC.
	FaultFetch FaultKind = iota
	// FaultDecode: undecodable instruction word, unimplemented opcode
	// or EBREAK.
	FaultDecode
	// FaultStrictBound (STRAIGHT strict mode): a source read beyond the
	// distance bound.
	FaultStrictBound
	// FaultStrictUninit (STRAIGHT strict mode): a source read of a slot
	// no instruction has written yet.
	FaultStrictUninit
	// FaultMisaligned: misaligned data access or jump target.
	FaultMisaligned
	// FaultBadSys: unknown syscall function code.
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

// Fault is an architectural execution fault, raised at the instruction
// at PC after Count retired instructions.
type Fault struct {
	ISA   ISA
	Kind  FaultKind
	PC    uint32
	Count uint64
	Msg   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%s: %s fault at pc=%#08x insn#%d: %s", f.ISA, f.Kind, f.PC, f.Count, f.Msg)
}

// Console is an emulator's console output. Syscall output is formatted
// into a reusable buffer instead of through fmt, whose interface boxing
// allocates on every call — syscalls sit on the cross-validated retire
// path.
type Console struct {
	out io.Writer //lint:resetless output attachment, survives Reset by design
	buf []byte
}

// SetOutput directs console output to w.
func (c *Console) SetOutput(w io.Writer) { c.out = w }

// PutByte writes one byte.
//
//lint:hotpath
func (c *Console) PutByte(b byte) {
	c.ready()
	c.buf = append(c.buf[:0], b)
	c.out.Write(c.buf)
}

// PutInt writes v in the given base.
//
//lint:hotpath
func (c *Console) PutInt(v int64, base int) {
	c.ready()
	c.buf = strconv.AppendInt(c.buf[:0], v, base)
	c.out.Write(c.buf)
}

// PutUint writes v in the given base.
//
//lint:hotpath
func (c *Console) PutUint(v uint64, base int) {
	c.ready()
	c.buf = strconv.AppendUint(c.buf[:0], v, base)
	c.out.Write(c.buf)
}

func (c *Console) ready() {
	if c.buf == nil {
		c.buf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
	}
}

func (c *Console) reset() { c.buf = c.buf[:0] }

// Frame is the architectural state both emulators share. A Machine
// embeds it and adds its ISA's registers and Step.
type Frame struct {
	// Image is the program being run; Memory is the machine's private
	// copy of its memory.
	Image  *program.Image
	Memory *program.Memory
	// PCReg is the address of the next instruction to execute.
	PCReg uint32
	// Count is the number of instructions retired so far.
	Count uint64
	// Halted and ExitCode record the exit syscall.
	Halted   bool
	ExitCode int32
	Console

	isa ISA //lint:resetless the embedding emulator's identity, fixed at construction
}

// NewFrame returns the power-on frame for im, with an isolated memory
// copy and discarded output.
func NewFrame(isa ISA, im *program.Image) Frame {
	f := Frame{Image: im, Memory: program.NewMemory(), PCReg: im.Entry, isa: isa}
	f.SetOutput(io.Discard)
	f.Memory.LoadImage(im)
	return f
}

// Reset returns the frame to power-on state for img, reusing the
// memory's page frames and the console buffer. The output writer is
// configuration and survives.
func (f *Frame) Reset(img *program.Image) {
	f.Image = img
	f.Memory.Reset()
	f.Memory.LoadImage(img)
	f.PCReg = img.Entry
	f.Count = 0
	f.Halted = false
	f.ExitCode = 0
	f.Console.reset()
}

// Mem exposes the machine memory (for test setup and inspection).
func (f *Frame) Mem() *program.Memory { return f.Memory }

// PC returns the current program counter.
//
//lint:hotpath
func (f *Frame) PC() uint32 { return f.PCReg }

// InstCount returns the retired instruction count.
func (f *Frame) InstCount() uint64 { return f.Count }

// Exited reports whether the program executed the exit syscall, and its
// code.
//
//lint:hotpath
func (f *Frame) Exited() (bool, int32) { return f.Halted, f.ExitCode }

// Fault returns a fault of the given kind at the current instruction.
//
//lint:coldpath fault construction; a fault aborts the run
func (f *Frame) Fault(kind FaultKind, msg string, args ...any) error {
	return &Fault{ISA: f.isa, Kind: kind, PC: f.PCReg, Count: f.Count, Msg: fmt.Sprintf(msg, args...)}
}

// FetchFault reports a fetch from a misaligned PC or one outside text,
// with the image's own fetch error as the message.
//
//lint:coldpath fault construction; a fault aborts the run
func (f *Frame) FetchFault() error {
	_, err := f.Image.FetchWord(f.PCReg)
	return f.Fault(FaultFetch, "%v", err)
}

// Clone returns an independent copy of the frame with discarded output.
func (f *Frame) Clone() Frame {
	n := Frame{Image: f.Image, Memory: f.Memory.Clone(), PCReg: f.PCReg, Count: f.Count,
		Halted: f.Halted, ExitCode: f.ExitCode, isa: f.isa}
	n.SetOutput(io.Discard)
	return n
}

// Checkpoint snapshots the frame; the caller adds its register payload.
func (f *Frame) Checkpoint() *Checkpoint {
	return &Checkpoint{ISA: f.isa, PC: f.PCReg, Count: f.Count,
		Exited: f.Halted, ExitCode: f.ExitCode, Mem: f.Memory.Clone()}
}

// Restore rewinds the frame to c, reusing the memory's page frames; the
// caller restores its register payload.
func (f *Frame) Restore(c *Checkpoint) {
	f.PCReg, f.Count = c.PC, c.Count
	f.Memory.CopyFrom(c.Mem)
	f.Halted, f.ExitCode = c.Exited, c.ExitCode
}

// Checkpoint is a snapshot of an emulator's architectural state: the
// frame's PC, count, exit status and memory plus the ISA's registers.
// Statistics and the output writer are not part of it: a restored
// machine keeps accumulating into the same Stats and writing to the same
// output. A checkpoint stays valid however far execution proceeds and
// can be restored any number of times, so consumers must treat it,
// Mem included, as read-only.
type Checkpoint struct {
	ISA      ISA
	PC       uint32
	Count    uint64
	Exited   bool
	ExitCode int32
	Mem      *program.Memory
	// SP is STRAIGHT's stack pointer (RISC-V keeps its in Regs).
	SP uint32
	// Regs is the register payload: STRAIGHT's result-window ring,
	// indexed by dynamic count modulo its length, or RISC-V's 32 GPRs.
	Regs []uint32
}

// MarshalBinary encodes the checkpoint canonically: a given
// architectural state always produces the same bytes, because the
// sampled simulator content-addresses sample windows by them (DESIGN.md
// §16.2). The layout is the magic, u32 pc, u32 sp (STRAIGHT only), u64
// count, u8 exited, u32 exit code, the registers as u32s, then the
// memory (program.Memory.AppendBinary: pages sorted, all-zero frames
// omitted). All integers are little-endian. There is no decoder: the
// bytes are only hashed into keys and carried whole in the cached
// fast-forward sequence.
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	info := isas[c.ISA]
	b := make([]byte, 0, len(info.magic)+21+4*len(c.Regs)+c.Mem.MappedBytes()+64)
	b = append(b, info.magic...)
	b = binary.LittleEndian.AppendUint32(b, c.PC)
	if info.sp {
		b = binary.LittleEndian.AppendUint32(b, c.SP)
	}
	b = binary.LittleEndian.AppendUint64(b, c.Count)
	exited := byte(0)
	if c.Exited {
		exited = 1
	}
	b = append(b, exited)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.ExitCode))
	for _, v := range c.Regs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return c.Mem.AppendBinary(b), nil
}
