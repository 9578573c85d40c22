package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"straight/internal/core"
	"straight/internal/cores/engine"
	"straight/internal/program"
	"straight/internal/ptrace"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// Scale selects iteration counts. The paper runs 9000 Dhrystone
// iterations and 9 CoreMark iterations; the default here is smaller so
// the full suite completes in minutes, and ScalePaper approaches the
// paper's run lengths.
type Scale struct {
	DhrystoneIters int
	CoreMarkIters  int
	MicroIters     int
}

// ScaleQuick is used by tests.
var ScaleQuick = Scale{DhrystoneIters: 30, CoreMarkIters: 1, MicroIters: 1}

// ScaleDefault is used by the benchmarks and cmd/experiments.
var ScaleDefault = Scale{DhrystoneIters: 200, CoreMarkIters: 1, MicroIters: 2}

// CompilerMode selects RAW or RE+ code generation.
type CompilerMode string

const (
	ModeRAW CompilerMode = "RAW"
	ModeREP CompilerMode = "RE+"
)

// buildKey identifies one compiled image.
type buildKey struct {
	w       workloads.Workload
	iters   int
	isa     string // core.ISA.Name
	maxDist int
	mode    CompilerMode
}

// buildEntry is a singleflight slot: the first caller for a key runs the
// build inside the Once; every other caller (concurrent or later) blocks
// on the Once and then reads the immutable result.
type buildEntry struct {
	once sync.Once
	im   *program.Image
	err  error
}

var (
	builds      sync.Map // buildKey -> *buildEntry
	buildCalls  atomic.Int64
	buildMisses atomic.Int64
)

// BuildCacheStats returns the cumulative build-cache counters: hits is
// the number of Build* calls served from an already-built (or in-flight)
// image, misses the number of actual compilations.
func BuildCacheStats() (hits, misses int64) {
	m := buildMisses.Load()
	return buildCalls.Load() - m, m
}

// ResetBuildCache drops every cached image and zeroes the counters
// (test helper; not safe concurrently with in-flight builds).
func ResetBuildCache() {
	builds = sync.Map{}
	buildCalls.Store(0)
	buildMisses.Store(0)
}

// buildOnce runs f exactly once per key, concurrent callers included,
// and hands every caller the same immutable image.
func buildOnce(key buildKey, f func() (*program.Image, error)) (*program.Image, error) {
	buildCalls.Add(1)
	e, _ := builds.LoadOrStore(key, &buildEntry{})
	entry := e.(*buildEntry)
	entry.once.Do(func() {
		buildMisses.Add(1)
		entry.im, entry.err = f()
	})
	return entry.im, entry.err
}

// Build compiles a workload for the ISA engine kind k runs, through
// the facade's toolchain (core.Toolchain.CompileC). Images are cached
// by (ISA, workload, iters, maxDist, mode): each distinct key is built
// exactly once, even under concurrent callers, and the returned image
// is shared read-only. maxDist and mode apply only to distance-operand
// ISAs, so every kind on one ISA shares its image. STRAIGHT images are
// proven hazard-consistent at maxDist by the backend's post-compile
// sverify assertion (straightbe.Compile), once per key.
func Build(k CoreKind, w workloads.Workload, iters, maxDist int, mode CompilerMode) (*program.Image, error) {
	isa, _, err := k.resolve()
	if err != nil {
		return nil, err
	}
	if !isa.Distance {
		maxDist, mode = 0, ""
	}
	key := buildKey{w: w, iters: iters, isa: isa.Name, maxDist: maxDist, mode: mode}
	return buildOnce(key, func() (*program.Image, error) {
		src, err := workloads.Source(w, iters)
		if err != nil {
			return nil, err
		}
		prog, err := core.NewToolchain().CompileC(src, isa.Target,
			core.CompileOptions{MaxDistance: maxDist, RedundancyElim: mode == ModeREP})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		return prog.Image, nil
	})
}

// BuildRISCV compiles a workload for the rename-based cores (see Build).
func BuildRISCV(w workloads.Workload, iters int) (*program.Image, error) {
	return Build(CoreEmuRISCV, w, iters, 0, "")
}

// BuildSTRAIGHT compiles a workload for the STRAIGHT core (see Build).
func BuildSTRAIGHT(w workloads.Workload, iters, maxDist int, mode CompilerMode) (*program.Image, error) {
	return Build(CoreEmuStraight, w, iters, maxDist, mode)
}

const simCycleCap = 2_000_000_000

// RunCore simulates an image on the cycle-level engine kind k with an
// optional pipeline tracer attached, and checks the resulting counters
// for internal consistency.
func RunCore(k CoreKind, cfg uarch.Config, im *program.Image, tr *ptrace.Tracer) (*engine.Result, error) {
	_, m, err := k.resolve()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("core kind %q is not a cycle-level core", k)
	}
	opts := engine.Options{MaxCycles: simCycleCap, Tracer: tr, Interrupt: &interruptFlag}
	res, err := m.New(cfg, im, opts).Run(opts)
	if err != nil {
		return nil, err
	}
	if err := res.Stats.Check(cfg); err != nil {
		return nil, err
	}
	return res, nil
}

func iters(s Scale, w workloads.Workload) int {
	switch w {
	case workloads.Dhrystone:
		return s.DhrystoneIters
	case workloads.CoreMark:
		return s.CoreMarkIters
	default:
		return s.MicroIters
	}
}
