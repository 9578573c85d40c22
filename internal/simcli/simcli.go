// Package simcli is the body shared by the cycle-simulator commands
// (cmd/straight-sim, cmd/riscv-sim): assemble a program for a machine's
// ISA, run it on the machine's detailed core — or sample it (DESIGN.md
// §16) — and report the pipeline statistics. Each command is one call
// to Main naming its machine in internal/core's table.
package simcli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"straight/internal/core"
	"straight/internal/cores/engine"
	"straight/internal/profiling"
	"straight/internal/ptrace"
	"straight/internal/sampling"
	"straight/internal/uarch"
)

// Main runs the command name on the machine registered under policy and
// returns the process exit code: the simulated program's exit code, 1
// on a failure, 2 on a usage error. args excludes the program name.
// extra, when non-nil, registers command-specific flags and returns the
// hook that applies them to the selected configuration.
func Main(name, policy string, args []string, stdout, stderr io.Writer,
	extra func(fs *flag.FlagSet) func(*uarch.Config)) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "4way", "model: 2way or 4way (Table I)")
	tage := fs.Bool("tage", false, "use the TAGE predictor instead of gshare")
	validate := fs.Bool("validate", false, "cross-validate against the functional emulator")
	sample := fs.Bool("sample", false, "sampled simulation: fast-forward + measured sample windows")
	sampleInterval := fs.Uint64("sample-interval", 0, "override the interval plan's checkpoint spacing")
	sampleWarmup := fs.Uint64("sample-warmup", 0, "override the interval plan's detailed warmup length")
	sampleWindow := fs.Uint64("sample-window", 0, "override the interval plan's measured window length")
	sampleWarmMem := fs.Uint64("sample-warmmem", 0, "override the interval plan's functional-warming burst length")
	tracePath := fs.String("trace", "", "write a Kanata pipeline trace to this path (plus <path>.series.json)")
	traceWindow := fs.Int64("trace-window", 0, "trace time-series window in cycles (0 = default)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this path")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
	var apply func(*uarch.Config)
	if extra != nil {
		apply = extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: %s [flags] file.s\n", name)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}

	m, err := core.LookupMachine(policy)
	if err != nil {
		return fail(err)
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fail(err)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	prog, err := core.NewToolchain().Assemble(string(src), m.Target)
	if err != nil {
		return fail(err)
	}
	im := prog.Image
	cfg := m.FourWay()
	if *config == "2way" {
		cfg = m.TwoWay()
	}
	if *tage {
		cfg.Predictor = uarch.PredTAGE
	}
	if apply != nil {
		apply(&cfg)
	}
	if *sample {
		if *tracePath != "" || *validate {
			return fail(fmt.Errorf("-sample cannot be combined with -trace or -validate"))
		}
		plan := sampling.DefaultPlan()
		overridePlan(&plan, *sampleInterval, *sampleWarmup, *sampleWindow, *sampleWarmMem)
		tgt, err := sampling.NewTarget(policy, cfg, im)
		if err != nil {
			return fail(err)
		}
		rep, err := sampling.Run(tgt, plan, sampling.Options{Output: stdout})
		if err != nil {
			return fail(err)
		}
		if err := stopProf(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "\n--- %s (sampled) ---\n%s", cfg.Name, rep.String())
		return int(rep.ExitCode)
	}
	opts := engine.Options{CrossValidate: *validate, Output: stdout}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		opts.Tracer = ptrace.New(traceFile, ptrace.Config{Window: *traceWindow})
	}
	res, err := m.New(cfg, im, opts).Run(opts)
	if err != nil {
		return fail(err)
	}
	if err := stopProf(); err != nil {
		return fail(err)
	}
	if opts.Tracer != nil {
		if err := finishTrace(opts.Tracer, traceFile, *tracePath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "trace: %s (series: %s)\n", *tracePath, ptrace.SeriesPath(*tracePath))
	}
	fmt.Fprintf(stderr, "\n--- %s ---\n%s", cfg.Name, res.Stats.String())
	return int(res.ExitCode)
}

func finishTrace(tr *ptrace.Tracer, f *os.File, path string) error {
	if err := tr.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return ptrace.WriteSeriesFile(ptrace.SeriesPath(path), tr.Series())
}

// overridePlan applies the non-zero -sample-* flag overrides to the
// default interval plan.
func overridePlan(p *sampling.Plan, interval, warmup, window, warmMem uint64) {
	if interval > 0 {
		p.Interval = interval
	}
	if warmup > 0 {
		p.Warmup = warmup
	}
	if window > 0 {
		p.Window = window
	}
	if warmMem > 0 {
		p.WarmMem = warmMem
	}
}

// NoPenaltyFlag is riscv-sim's extra flag: -nopenalty idealizes
// misprediction recovery (Fig 13).
func NoPenaltyFlag(fs *flag.FlagSet) func(*uarch.Config) {
	nopenalty := fs.Bool("nopenalty", false, "idealize misprediction recovery (Fig 13)")
	return func(cfg *uarch.Config) { cfg.ZeroMispredictPenalty = *nopenalty }
}
