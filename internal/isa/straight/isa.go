// Package straight defines the STRAIGHT instruction set architecture:
// a RISC-style integer ISA whose source operands are expressed as the
// dynamic distance to the producer instruction (Irie et al., MICRO 2018).
//
// Key properties (paper §III-A):
//
//   - Every instruction implicitly writes exactly one destination register,
//     identified by its position in the dynamic instruction stream. Two
//     instructions can never share a destination, so registers are
//     write-once.
//   - A source operand "[k]" names the value produced by the k-th previous
//     instruction on the executed control-flow path. Distance 0 reads the
//     constant zero ("[0]" is the zero register).
//   - The largest representable distance is MaxDistance (10-bit source
//     fields, 2^10-1 = 1023). A value becomes dead once 1023 younger
//     instructions have been fetched after its producer.
//   - The stack pointer SP is the only overwritable architectural register.
//     It is modified exclusively by SPADD, which adds a signed immediate to
//     SP in order at decode and also writes the new SP value to its normal
//     write-once destination, so later loads/stores can address the frame by
//     distance.
//   - Store instructions occupy a destination register like every other
//     instruction; the stored value is returned if the register is read.
//
// The paper fixes the operand model and the 10-bit source fields but not a
// complete opcode map; this package defines a concrete 32-bit encoding
// documented per format below. The integer operation set mirrors RV32IM so
// the STRAIGHT and RISC-V backends can lower the same IR node set, matching
// the paper's evaluation setup (32-bit, no floating point).
package straight

import "fmt"

// MaxDistance is the largest source-operand distance the ISA can encode.
// Source fields are 10 bits wide; distance 0 is the zero register.
const MaxDistance = 1023

// Op enumerates STRAIGHT opcodes.
type Op uint8

const (
	// NOP writes 0 to its destination and has no other effect.
	NOP Op = iota

	// Register-register ALU operations (format R).
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	MUL
	MULH
	MULHU
	DIV
	DIVU
	REM
	REMU

	// Register-immediate ALU operations (format I, 14-bit signed immediate).
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	SLTIU

	// LUI loads imm24<<8 into the destination (format U). Any 32-bit
	// constant is materialized as LUI(hi24) followed by ORI [1] lo8.
	LUI

	// Loads (format I): address = value([src1]) + imm14.
	LW
	LH
	LHU
	LB
	LBU

	// Stores (format S): mem[value([src1]) + imm4] = value([src2]).
	// The stored value is also written to the destination register.
	SW
	SH
	SB

	// Conditional branches (format B): taken if value([src1]) == 0 (BEZ)
	// or != 0 (BNZ). Target = PC + imm14*4. The destination receives the
	// branch outcome (1 if taken).
	BEZ
	BNZ

	// Unconditional jumps (format J): target = PC + imm24*4.
	// J writes 0; JAL writes the return address PC+4.
	J
	JAL

	// Register jumps (format JR): target = value([src1]).
	// JR writes 0; JALR writes PC+4.
	JR
	JALR

	// RMOV copies value([src1]) to the destination (format JR). It is the
	// padding instruction used by the compiler for distance fixing and
	// distance bounding.
	RMOV

	// SPADD adds imm24 (signed, bytes) to SP in order at decode and writes
	// the updated SP to the destination (format J).
	SPADD

	// SYS performs an environment call (format S: src1, src2, func in the
	// 4-bit immediate field). See the Sys* function codes.
	SYS

	numOps // sentinel
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

// Sys* are SYS function codes carried in the 4-bit immediate of a SYS
// instruction. They stand in for the OS the paper's benchmarks assume.
const (
	// SysExit terminates the program; exit code = value([src1]).
	SysExit = 0
	// SysPutc writes the low byte of value([src1]) to the console.
	SysPutc = 1
	// SysPuti writes value([src1]) to the console as a signed decimal.
	SysPuti = 2
	// SysCycle returns the current dynamic instruction count (a cheap
	// substitute for a cycle counter, used by benchmark self-timing).
	SysCycle = 3
	// SysPutu writes value([src1]) as unsigned decimal.
	SysPutu = 4
	// SysPutx writes value([src1]) as hexadecimal.
	SysPutx = 5
)

// Format identifies the bit-field layout of an instruction word.
type Format uint8

const (
	// FmtN: op(8) | unused(24). NOP.
	FmtN Format = iota
	// FmtR: op(8) | src1(10) | src2(10) | unused(4).
	FmtR
	// FmtI: op(8) | src1(10) | imm14. ALU-immediate, loads, branches.
	FmtI
	// FmtS: op(8) | src1(10) | src2(10) | imm4. Stores, SYS.
	FmtS
	// FmtJ: op(8) | imm24. J, JAL, SPADD, LUI.
	FmtJ
	// FmtJR: op(8) | src1(10) | unused(14). JR, JALR, RMOV.
	FmtJR
)

// Class is the coarse execution class of an opcode, used by the pipeline
// models to steer instructions to functional units.
type Class uint8

const (
	ClassALU Class = iota
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional direct and indirect jumps
	ClassSys
	ClassNop
)

type opInfo struct {
	name   string
	format Format
	class  Class
}

var opTable = [numOps]opInfo{
	NOP:   {"NOP", FmtN, ClassNop},
	ADD:   {"ADD", FmtR, ClassALU},
	SUB:   {"SUB", FmtR, ClassALU},
	AND:   {"AND", FmtR, ClassALU},
	OR:    {"OR", FmtR, ClassALU},
	XOR:   {"XOR", FmtR, ClassALU},
	SLL:   {"SLL", FmtR, ClassALU},
	SRL:   {"SRL", FmtR, ClassALU},
	SRA:   {"SRA", FmtR, ClassALU},
	SLT:   {"SLT", FmtR, ClassALU},
	SLTU:  {"SLTU", FmtR, ClassALU},
	MUL:   {"MUL", FmtR, ClassMul},
	MULH:  {"MULH", FmtR, ClassMul},
	MULHU: {"MULHU", FmtR, ClassMul},
	DIV:   {"DIV", FmtR, ClassDiv},
	DIVU:  {"DIVU", FmtR, ClassDiv},
	REM:   {"REM", FmtR, ClassDiv},
	REMU:  {"REMU", FmtR, ClassDiv},
	ADDI:  {"ADDi", FmtI, ClassALU},
	ANDI:  {"ANDi", FmtI, ClassALU},
	ORI:   {"ORi", FmtI, ClassALU},
	XORI:  {"XORi", FmtI, ClassALU},
	SLLI:  {"SLLi", FmtI, ClassALU},
	SRLI:  {"SRLi", FmtI, ClassALU},
	SRAI:  {"SRAi", FmtI, ClassALU},
	SLTI:  {"SLTi", FmtI, ClassALU},
	SLTIU: {"SLTiu", FmtI, ClassALU},
	LUI:   {"LUI", FmtJ, ClassALU},
	LW:    {"LW", FmtI, ClassLoad},
	LH:    {"LH", FmtI, ClassLoad},
	LHU:   {"LHU", FmtI, ClassLoad},
	LB:    {"LB", FmtI, ClassLoad},
	LBU:   {"LBU", FmtI, ClassLoad},
	SW:    {"SW", FmtS, ClassStore},
	SH:    {"SH", FmtS, ClassStore},
	SB:    {"SB", FmtS, ClassStore},
	BEZ:   {"BEZ", FmtI, ClassBranch},
	BNZ:   {"BNZ", FmtI, ClassBranch},
	J:     {"J", FmtJ, ClassJump},
	JAL:   {"JAL", FmtJ, ClassJump},
	JR:    {"JR", FmtJR, ClassJump},
	JALR:  {"JALR", FmtJR, ClassJump},
	RMOV:  {"RMOV", FmtJR, ClassALU},
	SPADD: {"SPADD", FmtJ, ClassALU},
	SYS:   {"SYS", FmtS, ClassSys},
}

// String returns the canonical mnemonic.
func (o Op) String() string {
	if int(o) < len(opTable) {
		return opTable[o].name
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Format returns the encoding format of the opcode.
//
//lint:hotpath
func (o Op) Format() Format {
	if int(o) >= len(opTable) {
		return FmtN
	}
	return opTable[o].format
}

// Class returns the execution class of the opcode.
//
//lint:hotpath
func (o Op) Class() Class {
	if int(o) >= len(opTable) {
		return opTable[NOP].class
	}
	return opTable[o].class
}

// Inst is a decoded STRAIGHT instruction. Src1/Src2 are producer distances
// (0 = zero register); Imm holds the format-dependent immediate.
type Inst struct {
	Op   Op
	Src1 uint16
	Src2 uint16
	Imm  int32
}

// NumSources reports how many distance-addressed source operands the
// instruction reads (0, 1 or 2). Distance-0 sources still count: they read
// the zero register.
//
//lint:hotpath
func (i Inst) NumSources() int {
	switch i.Op.Format() {
	case FmtR, FmtS:
		return 2
	case FmtI, FmtJR:
		return 1
	default:
		return 0
	}
}

// IsControl reports whether the instruction can redirect the PC.
//
//lint:hotpath
func (i Inst) IsControl() bool {
	c := i.Op.Class()
	return c == ClassBranch || c == ClassJump
}

// Hints says how a committed control transfer trains the return-address
// stack and the BTB. The core's front end, its RAS repair after a
// misprediction and the sampled simulator's functional warming all read
// it, so the three agree.
type Hints struct {
	// Call pushes the return address pc+4; Return pops it.
	Call, Return bool
	// Indirect: the target comes from a register, so it enters the BTB.
	Indirect bool
}

// Hints classifies a jump: JAL and JALR are calls, JR is a return, and
// the register-target JALR and JR are indirect.
//
//lint:hotpath
func (i Inst) Hints() Hints {
	switch i.Op {
	case JAL:
		return Hints{Call: true}
	case JALR:
		return Hints{Call: true, Indirect: true}
	case JR:
		return Hints{Return: true, Indirect: true}
	}
	return Hints{}
}

// WritesLink reports whether the instruction writes a return address.
func (i Inst) WritesLink() bool { return i.Op == JAL || i.Op == JALR }

// String renders the instruction in assembly syntax.
func (i Inst) String() string {
	switch i.Op.Format() {
	case FmtN:
		return i.Op.String()
	case FmtR:
		return fmt.Sprintf("%s [%d], [%d]", i.Op, i.Src1, i.Src2)
	case FmtI:
		return fmt.Sprintf("%s [%d], %d", i.Op, i.Src1, i.Imm)
	case FmtS:
		if i.Op == SYS {
			return fmt.Sprintf("SYS %d, [%d], [%d]", i.Imm, i.Src1, i.Src2)
		}
		return fmt.Sprintf("%s [%d], [%d], %d", i.Op, i.Src1, i.Src2, i.Imm)
	case FmtJ:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case FmtJR:
		return fmt.Sprintf("%s [%d]", i.Op, i.Src1)
	}
	return i.Op.String()
}

// Lookup resolves a mnemonic (case-insensitive for letters, as emitted by
// the paper's listings, e.g. "ADDi", "SLTiu") to its opcode.
func Lookup(mnemonic string) (Op, bool) {
	op, ok := mnemonicIndex[normalizeMnemonic(mnemonic)]
	return op, ok
}

var mnemonicIndex = func() map[string]Op {
	m := make(map[string]Op, numOps+4)
	for op := Op(0); op < numOps; op++ {
		m[normalizeMnemonic(opTable[op].name)] = op
	}
	// Aliases used by the paper's listings.
	m[normalizeMnemonic("LD")] = LW
	m[normalizeMnemonic("ST")] = SW
	return m
}()

func normalizeMnemonic(s string) string {
	b := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}
