// Package sampling implements SimPoint/SMARTS-style sampled simulation
// (DESIGN.md §16): a functional emulator fast-forwards the workload,
// taking a serializable architectural checkpoint at every interval
// boundary; a detailed cycle core is seeded from each checkpoint via the
// engine's restore-into-core path (engine.Core.Restart), warmed up for W
// instructions with statistics discarded, and then measured for an
// S-instruction sample window. Whole-program IPC/CPI and stall shares
// are reconstructed from the equal-weighted window measurements with
// per-metric confidence intervals. Windows fan out across a bounded
// worker pool with one reusable core per worker, starting as soon as the
// fast-forward takes their checkpoints, and each window result
// is content-addressed in the result store by checkpoint hash + core
// configuration + plan, so re-sweeps only re-simulate dirty windows.
package sampling

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"straight/internal/core"
	"straight/internal/cores/engine"
	"straight/internal/emu"
	"straight/internal/program"
	"straight/internal/resultstore"
	"straight/internal/uarch"
)

// Plan is the interval plan: where checkpoints are taken and how much of
// each interval is warmed and measured. The plan is part of the window
// cache key, and together with the target it fully determines the
// report — sampling has no other randomness, so equal plans produce
// byte-identical report fingerprints (Report.Fingerprint).
type Plan struct {
	// Interval is the distance in retired instructions between
	// checkpoints (and hence between window starts).
	Interval uint64 `json:"interval"`
	// Warmup is the number of instructions simulated in detail before
	// each measurement to charge cold caches, predictors, and the
	// pipeline fill; its statistics are discarded (SMARTS warming).
	Warmup uint64 `json:"warmup"`
	// Window is the number of instructions measured per sample.
	Window uint64 `json:"window"`
	// Offset shifts the first checkpoint away from instruction 0 — the
	// SMARTS phase-offset "seed". Windows then start at Offset + k*Interval.
	Offset uint64 `json:"offset,omitempty"`
	// WarmMem bounds functional warming (uarch.WarmState): only the last
	// WarmMem retired instructions before each checkpoint train the
	// replica cache/predictor state at fast-forward time. 0 (or any value
	// ≥ Interval) warms continuously — most accurate, but the tracer tax
	// is paid on every fast-forwarded instruction. Warm state accumulates
	// across bursts (it is never reset), so bounded warming only ages
	// lines between bursts rather than dropping them.
	WarmMem uint64 `json:"warm_mem,omitempty"`
}

// DefaultPlan measures ~1.6% of the program: a 32k detailed warmup and
// a 16k measured window every 1M instructions, with functional warming
// over the last quarter of each interval. The warmup depth is the
// measured knee on the long workload (DESIGN.md §16.4): at 32k every
// 4-wide kernel's sampled IPC on default-scale dhrystone-long is within
// 3.6% of full detail, and 24k already costs up to 8.5%. Deeper
// warmups do not close the rest of the gap (at 128k straight-4way is
// still −3.5% and cg-4way settles at +5.4%), so the warmup, which is
// most of a cold run's detailed work, is kept at the knee.
// Repeat runs against a result store skip the fast-forward entirely
// (the checkpoint sequence is content-addressed too) and reduce to
// hashing — the ~100× regime.
func DefaultPlan() Plan {
	return Plan{Interval: 1_000_000, Warmup: 32_768, Window: 16_384, WarmMem: 250_000}
}

// Validate rejects degenerate plans. Window must fit inside the
// interval so no instruction is measured twice (measured spans start
// Interval apart). Warmup is free to overlap the previous window's
// measured span: with Window == Interval the measured spans tile the
// program gaplessly and each warmup replays the tail of the span before
// it — the dense-plan shape the accuracy tests use on small workloads.
func (p Plan) Validate() error {
	if p.Window == 0 {
		return fmt.Errorf("sampling: plan window is zero")
	}
	if p.Interval == 0 {
		return fmt.Errorf("sampling: plan interval is zero")
	}
	if p.Window > p.Interval {
		return fmt.Errorf("sampling: window %d exceeds interval %d (instructions would be measured twice)",
			p.Window, p.Interval)
	}
	return nil
}

// Target binds a workload image to a core policy and configuration.
type Target struct {
	// Policy is a machine-table policy name ("straight", "ss", "cg").
	Policy string
	Cfg    uarch.Config
	Img    *program.Image

	machine *core.Machine
}

// NewTarget builds a sampling target for a policy name (a machine in
// internal/core's table), core configuration, and image. The
// fast-forward runs on the functional emulator of the machine's ISA.
func NewTarget(policy string, cfg uarch.Config, img *program.Image) (*Target, error) {
	m, err := core.LookupMachine(policy)
	if err != nil {
		return nil, fmt.Errorf("sampling: %w", err)
	}
	return &Target{Policy: policy, Cfg: cfg, Img: img, machine: m}, nil
}

// Options control one sampled run.
type Options struct {
	// Workers bounds concurrent sample windows; <= 0 means GOMAXPROCS.
	// The worker count never affects the report contents, only wall time.
	Workers int
	// Store, when non-nil, caches window results content-addressed by
	// checkpoint hash + config + plan (schema windowSchema).
	Store *resultstore.Store
	// NoIdleSkip forces strict cycle-by-cycle stepping in the windows.
	NoIdleSkip bool
	// Output receives the program's console output (written once, by the
	// fast-forward pass, which executes every instruction). nil discards.
	Output io.Writer
	// MaxInsns caps the fast-forward pass; 0 means the default cap. A
	// program that does not exit within the cap is an error, mirroring
	// the emulators' Run contract.
	MaxInsns uint64
	// Interrupt, when non-nil, cancels the run (uarch.ErrInterrupted):
	// polled between fast-forward intervals and inside window simulation.
	Interrupt *atomic.Bool
}

// defaultMaxInsns caps runaway fast-forwards (~22s at measured
// emulator throughput) far above the long-workload tier.
const defaultMaxInsns = 2_000_000_000

// Run fast-forwards the target's workload, measures the plan's sample
// windows on the detailed core, and reconstructs whole-program metrics.
// Windows run on the worker pool while the fast-forward is still going:
// each checkpoint is handed over as soon as it is taken.
func Run(t *Target, plan Plan, opts Options) (*Report, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	wallStart := time.Now()
	limit := opts.MaxInsns
	if limit == 0 {
		limit = defaultMaxInsns
	}

	// Fully-cached fast path. When the store already holds this image's
	// checkpoint sequence AND every window derived from it, the whole
	// run — fast-forward included — reduces to hashing. Only legal with
	// no output sink: a cached run executes nothing, and the program's
	// console output is produced by execution.
	if opts.Store != nil && opts.Output == nil {
		if rep, ok := runFromStore(t, plan, opts, limit, wallStart); ok {
			return rep, nil
		}
	}

	pool := newWindowPool(t, plan, opts)
	seq, ffErr := fastForward(t, plan, opts, limit, pool)
	ffWall := time.Since(wallStart)
	windows, winErr := pool.wait(ffErr != nil)
	if ffErr != nil {
		return nil, ffErr
	}
	if winErr != nil {
		return nil, winErr
	}
	if opts.Store != nil {
		// Only once every window is in, so a failed run stores nothing.
		// Persist the checkpoint sequence so the next run with this image
		// and checkpoint geometry (any policy/config on the same ISA) can
		// skip the fast-forward when its windows are all cached too.
		if err := opts.Store.Put(ffKey(t, plan, limit), encodeFFSeq(seq)); err != nil {
			return nil, fmt.Errorf("sampling: store fast-forward: %w", err)
		}
	}

	rep := reconstruct(t, plan, seq.total, seq.exit, windows)
	rep.Timing.FFSeconds = ffWall.Seconds()
	rep.Timing.WallSeconds = time.Since(wallStart).Seconds()
	rep.Timing.WindowSeconds = rep.Timing.WallSeconds - rep.Timing.FFSeconds
	if rep.Timing.WallSeconds > 0 {
		rep.Timing.EffectiveKIPS = float64(seq.total) / rep.Timing.WallSeconds / 1000
	}
	for _, w := range windows {
		if w.Cached {
			rep.Timing.StoreHits++
		}
	}
	return rep, nil
}

// fastForward runs the workload on the functional emulator, taking a
// checkpoint every interval and submitting its window to the pool as
// soon as it is taken. It stops early, returning a nil sequence and no
// error, once the pool has stopped on a failed window; the pool then
// holds the error.
func fastForward(t *Target, plan Plan, opts Options, limit uint64, pool *windowPool) (*ffSeq, error) {
	ff := t.machine.ISA().NewEmulator(t.Img)
	if opts.Output != nil {
		ff.SetOutput(opts.Output)
	}
	// Functional warming: continuous when WarmMem is 0 or covers the
	// whole interval, else a warming burst over the last WarmMem
	// instructions before each checkpoint (the tracer is the dominant
	// fast-forward cost, so bounding it preserves the speedup).
	warm := uarch.NewWarmState(t.Cfg)
	warmAll := plan.WarmMem == 0 || plan.WarmMem >= plan.Interval
	if warmAll {
		ff.SetWarm(warm)
	}
	seq := &ffSeq{}
	for k := uint64(0); ; k++ {
		target := plan.Offset + k*plan.Interval
		if target > limit {
			break
		}
		if opts.Interrupt != nil && opts.Interrupt.Load() {
			return nil, uarch.ErrInterrupted
		}
		if !warmAll && target > 0 {
			burst := target - min(plan.WarmMem, target)
			ff.SetWarm(nil)
			if err := ff.RunUntil(burst); err != nil {
				return nil, fmt.Errorf("sampling: fast-forward: %w", err)
			}
			ff.SetWarm(warm)
		}
		if err := ff.RunUntil(target); err != nil {
			return nil, fmt.Errorf("sampling: fast-forward: %w", err)
		}
		if done, _ := ff.Exited(); done {
			break
		}
		ck := ff.Checkpoint()
		enc, err := ck.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("sampling: marshal checkpoint @%d: %w", target, err)
		}
		if !pool.submit(windowJob{start: target, enc: enc, ck: ck, warm: warm.Clone()}) {
			return nil, nil
		}
		seq.points = append(seq.points, target)
		seq.encs = append(seq.encs, enc)
	}
	ff.SetWarm(nil)
	done, exitCode := ff.Exited()
	if !done {
		return nil, fmt.Errorf("sampling: %s/%s did not exit within %d instructions", t.Policy, t.Cfg.Name, limit)
	}
	seq.total, seq.exit = ff.InstCount(), exitCode
	return seq, nil
}

// runFromStore attempts the fully-cached run: load the checkpoint
// sequence for this image and checkpoint geometry, derive every window's
// content address from the serialized checkpoints, and reconstruct the
// report purely from stored window results. Any miss — no cached
// fast-forward, a missing or corrupt window — abandons the fast path
// and reports false; Run then falls back to the executing path, which
// reseeds the store. The report is byte-identical (Report.Fingerprint)
// to a cold run's: every number in it comes from the same stored
// measurements the cold run produced.
func runFromStore(t *Target, plan Plan, opts Options, limit uint64, wallStart time.Time) (*Report, bool) {
	raw, ok := opts.Store.Get(ffKey(t, plan, limit))
	if !ok {
		return nil, false
	}
	seq, err := decodeFFSeq(raw)
	if err != nil {
		return nil, false
	}
	windows := make([]WindowResult, len(seq.points))
	for i := range seq.points {
		key, err := windowKey(t, plan, seq.encs[i])
		if err != nil {
			return nil, false
		}
		wraw, ok := opts.Store.Get(key)
		if !ok {
			return nil, false
		}
		wr, err := decodeWindow(wraw)
		if err != nil {
			return nil, false
		}
		wr.Index = i
		wr.Start = seq.points[i]
		wr.Key = key.String()
		wr.Cached = true
		windows[i] = wr
	}
	rep := reconstruct(t, plan, seq.total, seq.exit, windows)
	rep.Timing.WallSeconds = time.Since(wallStart).Seconds()
	rep.Timing.WindowSeconds = rep.Timing.WallSeconds
	if rep.Timing.WallSeconds > 0 {
		rep.Timing.EffectiveKIPS = float64(seq.total) / rep.Timing.WallSeconds / 1000
	}
	rep.Timing.StoreHits = len(windows)
	return rep, true
}

// windowJob is one sample window handed from the fast-forward to the
// pool: its interval, the checkpoint and functionally-warmed state it
// restarts from (both dropped once the window is measured), and where
// its outcome goes.
type windowJob struct {
	idx   int
	start uint64 // checkpoint position
	enc   []byte // ck.MarshalBinary(): the window's content address
	ck    *emu.Checkpoint
	warm  *uarch.WarmState
	out   *windowOut
}

type windowOut struct {
	res WindowResult
	err error
}

// windowPool runs sample windows on at most Options.Workers goroutines,
// one reusable core per worker (Restart per window, construction once).
// Workers start with the first windows, so a run with fewer windows
// than workers starts only as many. The submit side — the fast-forward —
// is the only sender, so submit and wait must be called from one
// goroutine.
type windowPool struct {
	t       *Target
	plan    Plan
	opts    Options
	workers int

	// jobs is unbuffered: the fast-forward waits while every worker is
	// busy, so at most workers+1 checkpoints and warm clones are alive.
	jobs chan windowJob
	outs []*windowOut // interval order; read only after wait
	stop atomic.Bool  // a window or the fast-forward failed
	wg   sync.WaitGroup
}

func newWindowPool(t *Target, plan Plan, opts Options) *windowPool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &windowPool{t: t, plan: plan, opts: opts, workers: workers, jobs: make(chan windowJob)}
}

// submit hands a window to the pool, blocking while every worker is
// busy. It reports false, running nothing, once a window has failed.
func (wp *windowPool) submit(j windowJob) bool {
	if wp.stop.Load() {
		return false
	}
	j.idx = len(wp.outs)
	j.out = &windowOut{}
	wp.outs = append(wp.outs, j.out)
	if len(wp.outs) <= wp.workers {
		wp.wg.Add(1)
		go wp.work()
	}
	wp.jobs <- j
	return true
}

func (wp *windowPool) work() {
	defer wp.wg.Done()
	var core engine.Sim // built on first real window, reused via Restart
	for j := range wp.jobs {
		if wp.stop.Load() {
			continue
		}
		res, err := runOneWindow(wp.t, wp.plan, wp.opts, &core, j)
		if err != nil {
			j.out.err = fmt.Errorf("sampling: window %d @%d: %w", j.idx, j.start, err)
			wp.stop.Store(true)
			continue
		}
		j.out.res = res
	}
}

// wait closes the pool and waits for its workers; abandon skips windows
// not yet started. It returns the results in interval order regardless
// of completion order (same discipline as the bench runner, so reports
// are identical at any worker count), or the lowest-index window error.
func (wp *windowPool) wait(abandon bool) ([]WindowResult, error) {
	if abandon {
		wp.stop.Store(true)
	}
	close(wp.jobs)
	wp.wg.Wait()
	results := make([]WindowResult, len(wp.outs))
	for i, o := range wp.outs {
		if o.err != nil {
			return nil, o.err
		}
		results[i] = o.res
	}
	return results, nil
}

// runOneWindow measures one sample window: result-store lookup first,
// else Restart-from-checkpoint, discarded warmup, measured window.
// *core is the worker's reusable core, built lazily so fully-cached
// sweeps construct no cores at all.
func runOneWindow(t *Target, plan Plan, opts Options, core *engine.Sim, j windowJob) (WindowResult, error) {
	key, err := windowKey(t, plan, j.enc)
	if err != nil {
		return WindowResult{}, err
	}
	if opts.Store != nil {
		if raw, ok := opts.Store.Get(key); ok {
			if wr, err := decodeWindow(raw); err == nil {
				wr.Index = j.idx
				wr.Start = j.start
				wr.Key = key.String()
				wr.Cached = true
				return wr, nil
			}
			// Corrupted entry: fall through and recompute.
		}
	}

	if *core == nil {
		*core = t.machine.New(t.Cfg, t.Img, engine.Options{})
	}
	c := *core
	if err := c.Restart(t.Img, j.ck); err != nil {
		return WindowResult{}, err
	}
	c.AdoptWarm(j.warm)
	warmup, window := plan.Warmup, plan.Window
	if j.start == 0 && plan.Window == plan.Interval {
		// Dense tiling plans measure every instruction, and the entry
		// window restores at instruction 0, where cold state *is* the
		// true machine state — a warmup would discard real instructions
		// no other window measures. Promote it into the measured window
		// instead, so the tiling covers the program gaplessly from the
		// first instruction. Sparse plans do the opposite: there the
		// warmup's job is to discard the one-time cold-start transient,
		// which would otherwise be extrapolated to the entire first
		// interval (Interval/Window× its real weight).
		window += warmup
		warmup = 0
	}
	ropts := engine.Options{NoIdleSkip: opts.NoIdleSkip, Interrupt: opts.Interrupt}
	if warmup > 0 && !c.HasExited() {
		// The core's retired counter restarts at zero, so bounds are
		// window-relative. MaxInsns may overshoot by up to CommitWidth-1
		// — deterministically, so cached and fresh results still agree.
		ropts.MaxInsns = warmup
		if _, err := c.Run(ropts); err != nil {
			return WindowResult{}, fmt.Errorf("warmup: %w", err)
		}
	}
	s0 := c.Stats()
	if !c.HasExited() {
		ropts.MaxInsns = s0.Retired + window
		if _, err := c.Run(ropts); err != nil {
			return WindowResult{}, fmt.Errorf("measure: %w", err)
		}
	}
	delta := c.Stats().Sub(s0)

	wr := WindowResult{
		Index:         j.idx,
		Start:         j.start,
		Key:           key.String(),
		WarmupRetired: s0.Retired,
		Retired:       delta.Retired,
		Cycles:        delta.Cycles,
		Stats:         delta,
	}
	if wr.Retired > 0 {
		wr.CPI = float64(wr.Cycles) / float64(wr.Retired)
	}
	if err := validateWindow(wr); err != nil {
		return WindowResult{}, err
	}
	if opts.Store != nil {
		if err := opts.Store.Put(key, encodeWindow(wr)); err != nil {
			return WindowResult{}, fmt.Errorf("store put: %w", err)
		}
	}
	return wr, nil
}
