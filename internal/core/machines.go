package core

import (
	"fmt"
	"io"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/cores/cgcore"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/emu"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/program"
	"straight/internal/rasm"
	"straight/internal/sasm"
	"straight/internal/uarch"
)

// This file is the machine table: the one place that knows which
// backend, assembler and emulator belong to an ISA, and which policy
// package builds each detailed core. Every other package — the sweep
// runner, perf, sampling, fuzzgen, the sim CLIs — looks machines up
// here instead of switching on a name. Adding a machine is one entry in
// machines plus its policy package (DESIGN.md §15.3).

// ISA is one instruction set the toolchain targets.
type ISA struct {
	// Name is the ISA's stable identifier ("straight", "riscv"). Sampling
	// hashes it into its fast-forward keys, so it must never change.
	Name   string
	Target Target
	// Distance reports that operands are encoded as distances: builds
	// take a maximum distance and the RE+ switch (CompileOptions).
	Distance bool
	// Reference is the policy of the machine Simulate runs this ISA's
	// programs on.
	Reference string

	compile     func(mod *ir.Module, opts CompileOptions) (string, error)
	assemble    func(asm string) (*program.Image, error)
	disassemble func(im *program.Image) string
	// emulate builds the functional emulator for an image, plus a
	// closure that files the ISA's statistics into a result.
	emulate func(im *program.Image) (Emulator, func(*EmulateResult))
}

// Emulator is the surface of a functional emulator (straightemu,
// riscvemu): full runs for Emulate, and the checkpointing, warming
// fast-forward the sampled simulator drives (DESIGN.md §16).
type Emulator interface {
	SetOutput(w io.Writer)
	// Run executes until exit; reaching maxInsns first is a fault.
	Run(maxInsns uint64) (uint64, error)
	// RunUntil executes until the retired count reaches target or the
	// program exits; stopping at target is success.
	RunUntil(target uint64) error
	InstCount() uint64
	Exited() (bool, int32)
	Checkpoint() *emu.Checkpoint
	// SetWarm arms (or, with nil, disarms) functional warming: every
	// retired instruction trains w's replica caches, direction
	// predictor, BTB and RAS.
	SetWarm(w *uarch.WarmState)
}

// Machine is one detailed core: a policy over the shared cycle engine
// and the ISA whose programs it runs.
type Machine struct {
	// Policy names the machine ("straight", "ss", "cg"). Result-store
	// and sample-window keys hash it, so it must never change.
	Policy string
	Target Target
	// New builds the core for an image.
	New func(cfg uarch.Config, img *program.Image, opts engine.Options) engine.Sim
	// TwoWay and FourWay return the machine's Table I configurations.
	TwoWay, FourWay func() uarch.Config
}

var isas = [...]ISA{
	TargetStraight: {
		Name: "straight", Target: TargetStraight, Distance: true, Reference: "straight",
		compile: func(mod *ir.Module, opts CompileOptions) (string, error) {
			return straightbe.Compile(mod, straightbe.Options{
				MaxDistance:    opts.MaxDistance,
				RedundancyElim: opts.RedundancyElim,
			})
		},
		assemble:    func(asm string) (*program.Image, error) { return sasm.Assemble(asm) },
		disassemble: sasm.Disassemble,
		emulate: func(im *program.Image) (Emulator, func(*EmulateResult)) {
			m := straightemu.New(im)
			return m, func(r *EmulateResult) { r.StraightStats = m.Stats() }
		},
	},
	TargetRISCV: {
		Name: "riscv", Target: TargetRISCV, Reference: "ss",
		compile:     func(mod *ir.Module, _ CompileOptions) (string, error) { return riscvbe.Compile(mod) },
		assemble:    rasm.Assemble,
		disassemble: rasm.Disassemble,
		emulate: func(im *program.Image) (Emulator, func(*EmulateResult)) {
			m := riscvemu.New(im)
			return m, func(r *EmulateResult) { r.RISCVStats = m.Stats() }
		},
	},
}

var machines = [...]Machine{
	{Policy: "straight", Target: TargetStraight, New: straightcore.New,
		TwoWay: uarch.Straight2Way, FourWay: uarch.Straight4Way},
	{Policy: "ss", Target: TargetRISCV, New: sscore.New,
		TwoWay: uarch.SS2Way, FourWay: uarch.SS4Way},
	{Policy: "cg", Target: TargetRISCV, New: cgcore.New,
		TwoWay: uarch.CG2Way, FourWay: uarch.CG4Way},
}

// ISA returns the target's table entry.
func (t Target) ISA() (*ISA, error) {
	if t < 0 || int(t) >= len(isas) {
		return nil, fmt.Errorf("core: unknown target %d", t)
	}
	return &isas[t], nil
}

// Machine returns the target ISA's reference machine (ISA.Reference).
func (t Target) Machine() (*Machine, error) {
	isa, err := t.ISA()
	if err != nil {
		return nil, err
	}
	return LookupMachine(isa.Reference)
}

// NewEmulator builds the ISA's functional emulator for an image: the
// machine Emulate runs and the sampled simulator fast-forwards on.
func (isa *ISA) NewEmulator(im *program.Image) Emulator {
	m, _ := isa.emulate(im)
	return m
}

// LookupISA returns the ISA with the given Name.
func LookupISA(name string) (*ISA, error) {
	for i := range isas {
		if isas[i].Name == name {
			return &isas[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown ISA %q (want straight or riscv)", name)
}

// LookupMachine returns the machine with the given Policy.
func LookupMachine(policy string) (*Machine, error) {
	for i := range machines {
		if machines[i].Policy == policy {
			return &machines[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown policy %q (want straight, ss or cg)", policy)
}

// Machines returns every detailed core in table order.
func Machines() []Machine { return append([]Machine(nil), machines[:]...) }

// ISA returns the table entry of the ISA the machine runs.
func (m *Machine) ISA() *ISA { return &isas[m.Target] }
