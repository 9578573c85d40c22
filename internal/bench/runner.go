package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"straight/internal/core"
	"straight/internal/cores/engine"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/ptrace"
	"straight/internal/resultstore"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// CoreKind selects the engine a sweep point runs on.
type CoreKind string

const (
	// CoreSS is the cycle-level superscalar baseline.
	CoreSS CoreKind = "ss"
	// CoreStraight is the cycle-level STRAIGHT core.
	CoreStraight CoreKind = "straight"
	// CoreCG is the cycle-level coarse-grain OoO comparison core
	// (SS rename, block-granular issue; arXiv 1606.01607).
	CoreCG CoreKind = "cg"
	// CoreEmuRISCV is the functional RV32IM emulator (used where the
	// figure is microarchitecture-independent, e.g. Fig 15).
	CoreEmuRISCV CoreKind = "emu-riscv"
	// CoreEmuStraight is the functional STRAIGHT emulator.
	CoreEmuStraight CoreKind = "emu-straight"
)

// resolve looks the kind up in the machine table (internal/core): a
// cycle-level kind is a machine's policy name, a functional kind is
// "emu-" plus an ISA name. m is nil for the functional kinds.
func (k CoreKind) resolve() (isa *core.ISA, m *core.Machine, err error) {
	if m, err := core.LookupMachine(string(k)); err == nil {
		return m.ISA(), m, nil
	}
	if name, ok := strings.CutPrefix(string(k), "emu-"); ok {
		if isa, err := core.LookupISA(name); err == nil {
			return isa, nil, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown core kind %q", k)
}

// Cycle reports whether the kind is a cycle-level core (carries a
// uarch.Config and produces uarch.Stats).
func (k CoreKind) Cycle() bool {
	_, m, _ := k.resolve()
	return m != nil
}

// distance reports whether the kind runs a distance-operand ISA, whose
// builds are selected by a point's Mode and MaxDist.
func (k CoreKind) distance() bool {
	isa, _, err := k.resolve()
	return err == nil && isa.Distance
}

// SweepPoint is one independent (workload, engine, configuration)
// simulation of a figure sweep. Points carry everything needed to build
// and run themselves, so a Runner can execute any subset in any order.
type SweepPoint struct {
	// Section names the figure or table the point belongs to
	// (e.g. "Fig 11"); Label identifies the point within it.
	Section string
	Label   string

	Workload workloads.Workload
	Core     CoreKind
	Iters    int

	// Mode and MaxDist select the STRAIGHT build (ignored for the
	// RISC-V engines).
	Mode    CompilerMode
	MaxDist int

	// Config parameterizes the cycle cores (ignored by the emulators).
	Config uarch.Config
}

// Name identifies the point as "Section/Label" (the -trace-point and
// daemon-log naming).
func (p SweepPoint) Name() string {
	if p.Section == "" {
		return p.Label
	}
	return p.Section + "/" + p.Label
}

// SSPoint builds a cycle-level SS point.
func SSPoint(section, label string, w workloads.Workload, iters int, cfg uarch.Config) SweepPoint {
	return SweepPoint{Section: section, Label: label, Workload: w, Core: CoreSS, Iters: iters, Config: cfg}
}

// CGPoint builds a cycle-level coarse-grain OoO point (runs the same
// RISC-V build as SSPoint).
func CGPoint(section, label string, w workloads.Workload, iters int, cfg uarch.Config) SweepPoint {
	return SweepPoint{Section: section, Label: label, Workload: w, Core: CoreCG, Iters: iters, Config: cfg}
}

// StraightPoint builds a cycle-level STRAIGHT point; the compiled
// image's distance bound is taken from cfg.MaxDistance so build and
// model always agree.
func StraightPoint(section, label string, w workloads.Workload, iters int, mode CompilerMode, cfg uarch.Config) SweepPoint {
	return SweepPoint{Section: section, Label: label, Workload: w, Core: CoreStraight,
		Iters: iters, Mode: mode, MaxDist: cfg.MaxDistance, Config: cfg}
}

// PointResult is the outcome of one executed point. Exactly one of the
// engine-specific stats fields is set, matching Point.Core; the scalar
// summary fields are filled for every engine that has them. Every field
// except Trace is plain data, so results round-trip through the
// persistent store and the daemon wire format (see ResultData).
type PointResult struct {
	Point   SweepPoint
	Cycles  int64 // cycle cores only
	Retired uint64
	IPC     float64 // cycle cores only
	Output  string  // cycle cores only (emulators discard console output)
	Wall    time.Duration

	// Cached reports the result was served from the result store (or by
	// a daemon without re-simulation); Wall then holds the original
	// simulation's wall time, not the lookup's.
	Cached bool

	// Stats is set for the cycle cores (CoreSS / CoreStraight).
	Stats *uarch.Stats
	// EmuRISCV / EmuStraight are set for the functional engines.
	EmuRISCV    *riscvemu.Stats
	EmuStraight *straightemu.Stats

	// Trace is set when this point claimed the SetTraceTarget target.
	Trace *TraceRecord
}

// Runner executes sweep points on a bounded worker pool. The zero value
// runs with GOMAXPROCS workers.
type Runner struct {
	// Workers bounds concurrent points; <= 0 means GOMAXPROCS.
	Workers int
}

// Run executes every point and returns results in input order,
// regardless of completion order, so callers assemble identical tables
// at any worker count. On failure the lowest-indexed error among the
// points that ran is returned; points already in flight finish, queued
// ones are skipped.
func (r *Runner) Run(points []SweepPoint) ([]PointResult, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	results := make([]PointResult, len(points))
	errs := make([]error, len(points))

	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				if failed.Load() {
					errs[idx] = errSkipped
					continue
				}
				res, err := runPoint(points[idx])
				if err != nil {
					errs[idx] = fmt.Errorf("%s: %w", points[idx].Name(), err)
					failed.Store(true)
					continue
				}
				results[idx] = res
			}
		}()
	}
	for i := range points {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil && err != errSkipped {
			return nil, err
		}
	}
	// All real errors cleared; a point can only be marked skipped if
	// some other point failed, so reaching here means none did.
	recordResults(results)
	return results, nil
}

// errSkipped marks points abandoned after another point failed; it is
// never returned to callers.
var errSkipped = fmt.Errorf("skipped after earlier failure")

// runPoint executes one point: consult the result store, simulate on a
// miss (or when tracing forces a live run), and record what was
// computed. ExecutePoint is its exported face for the daemon.
func runPoint(p SweepPoint) (PointResult, error) {
	if Interrupted() {
		return PointResult{}, uarch.ErrInterrupted
	}
	var tgt *TraceTarget
	if p.Core.Cycle() {
		tgt = claimTrace(p.Name())
	}
	st := resultStore.Load()
	var key resultstore.Key
	keyed := false
	if st != nil && tgt == nil {
		k, err := PointKey(p)
		if err == nil {
			key, keyed = k, true
			if raw, ok := st.Get(k); ok {
				if res, derr := decodeStored(p, raw); derr == nil {
					bumpStore(p.Section, func(c *StoreCounts) { c.Hits++ })
					return res, nil
				}
				// Undecodable or inconsistent entry: treat as a miss and
				// recompute (the Put below supersedes it).
			}
			bumpStore(p.Section, func(c *StoreCounts) { c.Misses++ })
		}
	}
	res, err := simulatePoint(p, tgt)
	if err != nil {
		return res, err
	}
	bumpStore(p.Section, func(c *StoreCounts) { c.Recomputes++ })
	if keyed {
		if raw, merr := json.Marshal(res.Data()); merr == nil {
			if perr := st.Put(key, raw); perr != nil {
				// A store write failure must not fail the science; the
				// entry is simply recomputed next time.
				storePutErrors.Add(1)
			}
		}
	}
	return res, nil
}

// ExecutePoint runs one sweep point through the store-aware execution
// path without journaling (the daemon's per-point entry; batch callers
// use RunPoints).
func ExecutePoint(p SweepPoint) (PointResult, error) {
	return runPoint(p)
}

// storePutErrors counts result-store appends that failed (disk full,
// permissions); exposed via StorePutErrors for daemon stats.
var storePutErrors atomic.Int64

// StorePutErrors reports how many computed results could not be
// persisted.
func StorePutErrors() int64 { return storePutErrors.Load() }

// simulatePoint performs the actual build + simulation of a point.
func simulatePoint(p SweepPoint, tgt *TraceTarget) (PointResult, error) {
	start := time.Now()
	res := PointResult{Point: p}
	isa, m, err := p.Core.resolve()
	if err != nil {
		return res, err
	}
	im, err := Build(p.Core, p.Workload, p.Iters, p.MaxDist, p.Mode)
	if err != nil {
		return res, err
	}
	if m == nil {
		r, err := core.Emulate(&core.Program{Target: isa.Target, Image: im}, nil)
		if err != nil {
			return res, err
		}
		res.EmuRISCV, res.EmuStraight = r.RISCVStats, r.StraightStats
		res.Retired = r.Insns
	} else {
		var r *engine.Result
		run := func(tr *ptrace.Tracer) (err error) {
			r, err = RunCore(p.Core, p.Config, im, tr)
			return err
		}
		if tgt != nil {
			res.Trace, err = withTracer(tgt, run)
		} else {
			err = run(nil)
		}
		if err != nil {
			return res, err
		}
		res.Stats = &r.Stats
		res.Cycles = r.Stats.Cycles
		res.Retired = r.Stats.Retired
		res.IPC = r.Stats.IPC()
		res.Output = r.Output
	}
	res.Wall = time.Since(start)
	return res, nil
}

// ---- default runner ----

// parallelism is the worker count used by RunPoints (0 = GOMAXPROCS).
var parallelism atomic.Int32

// SetParallelism sets the worker count of the package-level runner that
// every experiment submits its points to; n <= 0 restores the
// GOMAXPROCS default.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism reports the effective worker count of RunPoints.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Remote executes a batch of sweep points somewhere other than this
// process — the straightd client installs one so cmd/experiments
// -server delegates simulation to the daemon. Implementations must
// return results in input order.
type Remote interface {
	Run(points []SweepPoint) ([]PointResult, error)
}

var remoteMu sync.RWMutex
var remoteRunner Remote

// SetRemote installs (or, with nil, removes) a remote executor that
// RunPoints delegates whole batches to instead of simulating locally.
func SetRemote(r Remote) {
	remoteMu.Lock()
	remoteRunner = r
	remoteMu.Unlock()
}

// RunPoints executes points on the package-level runner (see
// SetParallelism) — or the installed Remote — and journals every result
// for machine-readable reporting.
func RunPoints(points []SweepPoint) ([]PointResult, error) {
	remoteMu.RLock()
	rem := remoteRunner
	remoteMu.RUnlock()
	if rem != nil {
		results, err := rem.Run(points)
		if err != nil {
			return nil, err
		}
		recordResults(results)
		return results, nil
	}
	return (&Runner{Workers: Parallelism()}).Run(points)
}

// ---- journal ----

// PointRecord is the machine-readable summary of one executed point
// (cmd/experiments -json emits these).
type PointRecord struct {
	Section     string  `json:"section"`
	Label       string  `json:"label"`
	Workload    string  `json:"workload"`
	Core        string  `json:"core"`
	Mode        string  `json:"mode,omitempty"`
	MaxDistance int     `json:"max_distance,omitempty"`
	Iters       int     `json:"iterations"`
	Config      string  `json:"config,omitempty"`
	Cycles      int64   `json:"cycles,omitempty"`
	Retired     uint64  `json:"retired"`
	IPC         float64 `json:"ipc,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`

	// Trace carries the Kanata log paths and windowed time series when
	// this point was the SetTraceTarget target.
	Trace *TraceRecord `json:"trace,omitempty"`
}

var (
	journalMu sync.Mutex
	journal   []PointRecord
)

// recordResults appends finished results to the journal in input order
// (called once per Run, after assembly, so the journal is deterministic
// up to wall-clock values).
func recordResults(results []PointResult) {
	journalMu.Lock()
	defer journalMu.Unlock()
	for _, r := range results {
		p := r.Point
		rec := PointRecord{
			Section:     p.Section,
			Label:       p.Label,
			Workload:    string(p.Workload),
			Core:        string(p.Core),
			Iters:       p.Iters,
			Cycles:      r.Cycles,
			Retired:     r.Retired,
			IPC:         r.IPC,
			WallSeconds: r.Wall.Seconds(),
			Trace:       r.Trace,
		}
		if p.Core.distance() {
			rec.Mode = string(p.Mode)
			rec.MaxDistance = p.MaxDist
		}
		if p.Core.Cycle() {
			rec.Config = p.Config.Name
		}
		journal = append(journal, rec)
	}
}

// Journal returns a copy of every point executed through RunPoints (or
// any Runner) since the last reset, in submission order.
func Journal() []PointRecord {
	journalMu.Lock()
	defer journalMu.Unlock()
	out := make([]PointRecord, len(journal))
	copy(out, journal)
	return out
}

// ResetJournal clears the journal (test helper).
func ResetJournal() {
	journalMu.Lock()
	defer journalMu.Unlock()
	journal = nil
}
