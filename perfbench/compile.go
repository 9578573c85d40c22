package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/bench"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/program"
	"straight/internal/rasm"
	"straight/internal/sasm"
	"straight/internal/sverify"
	"straight/internal/workloads"
)

// maxDist is the distance bound of every STRAIGHT build: the paper's
// simulated models (and both Table I STRAIGHT configs) use 31.
const maxDist = 31

// imageSpec names one compiled program: a workload at an iteration
// count for one ISA (and, for STRAIGHT, one compiler mode).
type imageSpec struct {
	w     workloads.Workload
	iters int
	isa   string // "straight" or "riscv"
	mode  bench.CompilerMode
}

func (s imageSpec) String() string {
	if s.isa == "riscv" {
		return fmt.Sprintf("%s/%d/riscv", s.w, s.iters)
	}
	return fmt.Sprintf("%s/%d/straight-%s", s.w, s.iters, s.mode)
}

// build compiles the image through bench's build cache.
func (s imageSpec) build() (*program.Image, error) {
	if s.isa == "riscv" {
		return bench.BuildRISCV(s.w, s.iters)
	}
	return bench.BuildSTRAIGHT(s.w, s.iters, maxDist, s.mode)
}

// reference is what the functional emulator computes for an image: the
// outputs every cycle-level and sampled run of it must reproduce.
type reference struct {
	output string
	exit   int32
	insts  uint64
}

// setup compiles every image from a cold build cache, repeatedly (see
// minSetupReps), and records the median repetition as setup_s. The
// cache is left warm, so timed passes never compile. Traced runs also
// time each compiler stage (see compileStages).
func (r *run) setup(specs []imageSpec) (map[imageSpec]*program.Image, error) {
	var walls []float64
	var images map[imageSpec]*program.Image
	for begin := time.Now(); len(walls) < minSetupReps || time.Since(begin) < minSetupTime; {
		bench.ResetBuildCache()
		images = map[imageSpec]*program.Image{}
		runtime.GC() // start each repetition from the same heap state
		start := time.Now()
		root := r.tr.start(0, "bench", "setup")
		for _, s := range specs {
			sp := r.tr.start(root, "compile", "build")
			im, err := s.build()
			r.tr.finish(sp)
			if err != nil {
				return nil, fmt.Errorf("setup %s: %w", s, err)
			}
			images[s] = im
		}
		r.tr.finish(root)
		walls = append(walls, time.Since(start).Seconds())
	}
	r.e2e["setup_s"] = median(walls)
	if r.traced {
		if err := r.compileStages(specs); err != nil {
			return nil, err
		}
	}
	for s, im := range images {
		r.layer["compile.text_words."+s.isa] += float64(len(im.Text))
	}
	return images, nil
}

// compileStages runs the compiler stage by stage on every image, with a
// span around each stage call, minSetupReps times; compile.<stage>_ms is
// the median over repetitions of the stage's total over all images.
func (r *run) compileStages(specs []imageSpec) error {
	stages := []string{"parse", "irgen", "opt", "straightbe", "riscvbe", "sasm", "rasm", "sverify"}
	perRep := map[string][]float64{}
	for rep := 0; rep < minSetupReps; rep++ {
		sum := map[string]time.Duration{}
		root := r.tr.start(0, "bench", "compile-stages")
		timed := func(name string, f func() error) error {
			sp := r.tr.start(root, "compile", name)
			t := time.Now()
			err := f()
			sum[name] += time.Since(t)
			r.tr.finish(sp)
			return err
		}
		for _, s := range specs {
			src, err := workloads.Source(s.w, s.iters)
			if err != nil {
				return err
			}
			var file *minic.File
			var mod *ir.Module
			var asm string
			var im *program.Image
			err = timed("parse", func() (err error) { file, err = minic.Parse(src); return })
			if err == nil {
				err = timed("irgen", func() (err error) { mod, err = irgen.Build(file); return })
			}
			if err == nil {
				err = timed("opt", func() error { ir.OptimizeModule(mod); return nil })
			}
			if err == nil && s.isa == "riscv" {
				err = timed("riscvbe", func() (err error) { asm, err = riscvbe.Compile(mod); return })
				if err == nil {
					err = timed("rasm", func() (err error) { im, err = rasm.Assemble(asm); return })
				}
			} else if err == nil {
				err = timed("straightbe", func() (err error) {
					asm, err = straightbe.Compile(mod, straightbe.Options{MaxDistance: maxDist, RedundancyElim: s.mode == bench.ModeREP})
					return
				})
				if err == nil {
					err = timed("sasm", func() (err error) { im, err = sasm.Assemble(asm); return })
				}
				if err == nil {
					err = timed("sverify", func() error { return sverify.Check(im, sverify.Config{MaxDistance: maxDist}) })
				}
			}
			if err != nil {
				return fmt.Errorf("compile stages %s: %w", s, err)
			}
		}
		r.tr.finish(root)
		for _, st := range stages {
			perRep[st] = append(perRep[st], sum[st].Seconds()*1e3)
		}
	}
	for _, st := range stages {
		r.layer["compile."+st+"_ms"] = median(perRep[st])
	}
	return nil
}

// references emulates every image and reports the emulators'
// throughput.
func (r *run) references(specs []imageSpec, images map[imageSpec]*program.Image) (map[imageSpec]reference, error) {
	refs := map[imageSpec]reference{}
	emu := newThroughput()
	for _, s := range specs {
		ref, err := r.emulate(s, images[s], emu)
		if err != nil {
			return nil, err
		}
		refs[s] = ref
	}
	r.layer["emu.straight_mips"] = emu.rate("straight") / 1e6
	r.layer["emu.riscv_mips"] = emu.rate("riscv") / 1e6
	return refs, nil
}

// emulate runs the image to completion on its ISA's functional
// emulator (plain Run, console output captured) and adds the run to the
// emulator throughput totals.
func (r *run) emulate(s imageSpec, im *program.Image, mips *throughput) (reference, error) {
	var out bytes.Buffer
	sp := r.tr.start(0, "emu", "run-"+s.isa)
	start := time.Now()
	var ref reference
	if s.isa == "riscv" {
		m := riscvemu.New(im)
		m.SetOutput(&out)
		n, err := m.Run(4_000_000_000)
		if err != nil {
			return ref, fmt.Errorf("emulate %s: %w", s, err)
		}
		_, ref.exit = m.Exited()
		ref.insts = n
	} else {
		m := straightemu.New(im)
		m.SetOutput(&out)
		n, err := m.Run(4_000_000_000)
		if err != nil {
			return ref, fmt.Errorf("emulate %s: %w", s, err)
		}
		_, ref.exit = m.Exited()
		ref.insts = n
	}
	mips.add(s.isa, ref.insts, time.Since(start))
	r.tr.finish(sp)
	ref.output = out.String()
	return ref, nil
}

// throughput accumulates work and time per key.
type throughput struct {
	work map[string]float64
	secs map[string]float64
}

func newThroughput() *throughput {
	return &throughput{work: map[string]float64{}, secs: map[string]float64{}}
}

func (t *throughput) add(key string, work uint64, d time.Duration) {
	t.work[key] += float64(work)
	t.secs[key] += d.Seconds()
}

// rate is work per second for key, 0 when nothing was recorded.
func (t *throughput) rate(key string) float64 {
	if t.secs[key] <= 0 {
		return 0
	}
	return t.work[key] / t.secs[key]
}
