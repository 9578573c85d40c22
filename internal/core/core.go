// Package core is the library's public facade: one documented API that
// ties the whole STRAIGHT system together — the MiniC front end, the SSA
// middle end, the STRAIGHT and RISC-V backends, the assemblers, the
// functional emulators and the cycle-accurate simulators.
//
// A typical flow:
//
//	tc := core.NewToolchain()
//	prog, err := tc.CompileC(src, core.TargetStraight, core.CompileOptions{RedundancyElim: true})
//	out, err := core.Emulate(prog, nil)                  // architectural run
//	res, err := core.Simulate(prog, uarch.Straight4Way()) // cycle-accurate run
//	fmt.Println(res.Stats.IPC())
package core

import (
	"io"

	"straight/internal/cores/engine"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/program"
	"straight/internal/uarch"
)

// Target selects the instruction set a program is compiled for.
type Target int

const (
	// TargetStraight compiles for the STRAIGHT ISA.
	TargetStraight Target = iota
	// TargetRISCV compiles for RV32IM (the superscalar baseline).
	TargetRISCV
)

// CompileOptions configure code generation.
type CompileOptions struct {
	// MaxDistance bounds STRAIGHT operand distances (0 = ISA max 1023).
	MaxDistance int
	// RedundancyElim enables the RE+ optimizations (paper §IV-D).
	RedundancyElim bool
	// EmitAssembly, when non-nil, receives the generated assembly text.
	EmitAssembly io.Writer
}

// Program is a compiled, linked executable for one of the two ISAs.
type Program struct {
	Target Target
	Image  *program.Image
	// Assembly is the generated assembly text.
	Assembly string
}

// Toolchain compiles MiniC or assembly into runnable programs.
type Toolchain struct{}

// NewToolchain returns a ready toolchain.
func NewToolchain() *Toolchain { return &Toolchain{} }

// CompileC compiles MiniC source for the chosen target at -O2-equivalent
// optimization.
func (tc *Toolchain) CompileC(src string, target Target, opts CompileOptions) (*Program, error) {
	file, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	mod, err := irgen.Build(file)
	if err != nil {
		return nil, err
	}
	ir.OptimizeModule(mod)
	return tc.CompileIR(mod, target, opts)
}

// CompileIR lowers an already-built IR module.
func (tc *Toolchain) CompileIR(mod *ir.Module, target Target, opts CompileOptions) (*Program, error) {
	isa, err := target.ISA()
	if err != nil {
		return nil, err
	}
	asm, err := isa.compile(mod, opts)
	if err != nil {
		return nil, err
	}
	if opts.EmitAssembly != nil {
		io.WriteString(opts.EmitAssembly, asm)
	}
	return tc.Assemble(asm, target)
}

// Assemble assembles target assembly text into a program.
func (tc *Toolchain) Assemble(asm string, target Target) (*Program, error) {
	isa, err := target.ISA()
	if err != nil {
		return nil, err
	}
	im, err := isa.assemble(asm)
	if err != nil {
		return nil, err
	}
	return &Program{Target: target, Image: im, Assembly: asm}, nil
}

// EmulateResult is the outcome of an architectural (functional) run.
type EmulateResult struct {
	Output   string
	ExitCode int32
	Insns    uint64
	// StraightStats is populated for STRAIGHT programs (instruction mix,
	// operand distances).
	StraightStats *straightemu.Stats
	// RISCVStats is populated for RISC-V programs.
	RISCVStats *riscvemu.Stats
}

// Emulate runs a program on its functional emulator. Console output also
// streams to w when non-nil.
func Emulate(p *Program, w io.Writer) (*EmulateResult, error) {
	const maxInsns = 4_000_000_000
	isa, err := p.Target.ISA()
	if err != nil {
		return nil, err
	}
	m, stats := isa.emulate(p.Image)
	buf := &teeWriter{w: w}
	m.SetOutput(buf)
	n, err := m.Run(maxInsns)
	if err != nil {
		return nil, err
	}
	_, code := m.Exited()
	res := &EmulateResult{Output: string(buf.buf), ExitCode: code, Insns: n}
	stats(res)
	return res, nil
}

type teeWriter struct {
	w   io.Writer
	buf []byte
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if t.w != nil {
		return t.w.Write(p)
	}
	return len(p), nil
}

// SimResult is the outcome of a cycle-accurate run.
type SimResult struct {
	Output   string
	ExitCode int32
	Stats    uarch.Stats
}

// SimOptions configure cycle simulation.
type SimOptions struct {
	// CrossValidate retires in lockstep with the functional emulator.
	CrossValidate bool
	// MaxCycles bounds the run (0 = effectively unbounded).
	MaxCycles int64
	// Output receives console output as it is produced.
	Output io.Writer
}

// Simulate runs a program on its ISA's reference machine (the SS core
// for RISC-V, the renaming-free core for STRAIGHT).
func Simulate(p *Program, cfg uarch.Config, opts ...SimOptions) (*SimResult, error) {
	var o SimOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	m, err := p.Target.Machine()
	if err != nil {
		return nil, err
	}
	ropts := engine.Options{CrossValidate: o.CrossValidate, MaxCycles: o.MaxCycles, Output: o.Output}
	res, err := m.New(cfg, p.Image, ropts).Run(ropts)
	if err != nil {
		return nil, err
	}
	return &SimResult{Output: res.Output, ExitCode: res.ExitCode, Stats: res.Stats}, nil
}

// Disassemble returns a listing of the program's text segment.
func Disassemble(p *Program) string {
	isa, err := p.Target.ISA()
	if err != nil {
		return ""
	}
	return isa.disassemble(p.Image)
}
