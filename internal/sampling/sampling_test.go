package sampling_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"straight/internal/bench"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/perf"
	"straight/internal/resultstore"
	"straight/internal/sampling"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// densePlan is the test plan for the small matrix workloads: short
// intervals with 75% of each interval measured, so the sampled estimate
// is tight enough to compare against the full run within 2%.
func densePlan() sampling.Plan {
	return sampling.Plan{Interval: 1024, Warmup: 256, Window: 1024}
}

// matrixCase is one workload row of the accuracy matrix, crossed with
// every kernel of the differential matrix. The workloads run at larger
// iteration counts than the differential tests and each carries its
// own interval plan: the detailed-warmup depth is the knob that bounds
// the restart bias (DESIGN.md §16.4), and the depth a workload needs is
// an empirical property of how slowly its predictor state re-forms
// after a restore. The depths below are the measured knees — halving
// any of them pushes at least one 4-wide cell past the 2% bound
// (micro-fib at 8k: ss-4way −2.6%; micro-branch at 32k: ss-4way −4.3%;
// dhrystone at 40k: straight-4way −2.2%). Micro-branch has no
// memory-dependence violations, so the memory-dependence training
// repair left its knee where it was; the other two halved.
type matrixCase struct {
	w     workloads.Workload
	iters int
	plan  sampling.Plan
}

func matrixCases() []matrixCase {
	return []matrixCase{
		{workloads.MicroFib, 8, sampling.Plan{Interval: 4096, Warmup: 16384, Window: 4096}},
		{workloads.MicroBranch, 10, sampling.Plan{Interval: 8192, Warmup: 65536, Window: 8192}},
		{workloads.Dhrystone, 100, sampling.Plan{Interval: 8192, Warmup: 81920, Window: 8192}},
	}
}

func matrixKernels(t *testing.T) []perf.Kernel {
	t.Helper()
	var ks []perf.Kernel
	for _, name := range []string{
		"straight-2way", "straight-4way",
		"ss-2way", "ss-4way",
		"cg-2way", "cg-4way",
	} {
		k, err := perf.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

func buildTarget(t *testing.T, k perf.Kernel, c matrixCase) *sampling.Target {
	t.Helper()
	im, err := perf.BuildImage(k, c.w, c.iters)
	if err != nil {
		t.Fatalf("%s/%s: build: %v", k.Name, c.w, err)
	}
	tgt, err := sampling.NewTarget(string(k.Kind), k.Cfg, im)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestSampledAccuracyMatrix cross-validates the sampled estimator
// against a full detailed run for every workload × policy × width cell
// of the differential matrix: the sampled IPC must land within the
// documented 2% bound of the true IPC, and the sampled instruction
// count must be exact (the fast-forward executes every instruction).
func TestSampledAccuracyMatrix(t *testing.T) {
	const bound = 0.02
	for _, c := range matrixCases() {
		for _, k := range matrixKernels(t) {
			c, k := c, k
			t.Run(string(c.w)+"/"+k.Name, func(t *testing.T) {
				im, err := perf.BuildImage(k, c.w, c.iters)
				if err != nil {
					t.Fatal(err)
				}
				full, err := perf.Run(k, im)
				if err != nil {
					t.Fatal(err)
				}
				fullIPC := float64(full.Stats.Retired) / float64(full.Stats.Cycles)

				tgt, err := sampling.NewTarget(string(k.Kind), k.Cfg, im)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := sampling.Run(tgt, c.plan, sampling.Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if rep.TotalInsts != full.Stats.Retired {
					t.Errorf("sampled TotalInsts = %d, full run retired %d",
						rep.TotalInsts, full.Stats.Retired)
				}
				relErr := math.Abs(rep.IPC-fullIPC) / fullIPC
				t.Logf("full IPC %.4f, sampled IPC %.4f ±%.2f%%, err %.3f%%, %d windows, coverage %.1f%%",
					fullIPC, rep.IPC, 100*rep.CPI.RelCI95, 100*relErr, len(rep.Windows), 100*rep.Coverage)
				if relErr > bound {
					t.Errorf("sampled IPC %.4f vs full %.4f: relative error %.3f%% exceeds %.0f%% bound",
						rep.IPC, fullIPC, 100*relErr, 100*bound)
				}
			})
		}
	}
}

// TestSampledDeterminism: the same target and plan must produce a
// byte-identical report fingerprint at any worker count and whether the
// windows are computed cold or served from the store.
func TestSampledDeterminism(t *testing.T) {
	k, err := perf.KernelByName("straight-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	plan := densePlan()

	rep1, err := sampling.Run(tgt, plan, sampling.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := sampling.Run(tgt, plan, sampling.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1.Fingerprint(), rep4.Fingerprint()) {
		t.Error("fingerprints differ across worker counts")
	}

	store, err := resultstore.Open(filepath.Join(t.TempDir(), "windows.store"), resultstore.Options{Salt: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cold, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Timing.StoreHits != 0 {
		t.Errorf("cold run reported %d store hits", cold.Timing.StoreHits)
	}
	warm, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timing.StoreHits != len(warm.Windows) {
		t.Errorf("warm run hit %d/%d windows", warm.Timing.StoreHits, len(warm.Windows))
	}
	if !bytes.Equal(rep1.Fingerprint(), cold.Fingerprint()) ||
		!bytes.Equal(cold.Fingerprint(), warm.Fingerprint()) {
		t.Error("fingerprints differ between cold, store-cold, and store-warm runs")
	}
	// The cold run also cached the checkpoint sequence, so the warm run
	// must have taken the fully-cached path: no fast-forward at all.
	if warm.Timing.FFSeconds != 0 {
		t.Errorf("store-warm run spent %.3fs fast-forwarding; cached checkpoint sequence should skip it", warm.Timing.FFSeconds)
	}
	// An output sink disables the fully-cached path — console output
	// only exists if the program executes — but the windows still hit.
	var out bytes.Buffer
	warmOut, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, Store: store, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	if warmOut.Timing.FFSeconds == 0 {
		t.Error("store-warm run with an output sink skipped the fast-forward")
	}
	if warmOut.Timing.StoreHits != len(warmOut.Windows) {
		t.Errorf("store-warm run with output hit %d/%d windows", warmOut.Timing.StoreHits, len(warmOut.Windows))
	}
	if !bytes.Equal(warm.Fingerprint(), warmOut.Fingerprint()) {
		t.Error("fingerprint differs between fully-cached and output-sink store-warm runs")
	}
}

// TestSampledNoIdleSkipInvariance: idle-skipping is cycle-exact
// (DESIGN.md §12) and deliberately excluded from the window cache key,
// so both stepping modes must produce identical report fingerprints.
func TestSampledNoIdleSkipInvariance(t *testing.T) {
	k, err := perf.KernelByName("ss-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	plan := densePlan()
	skip, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2, NoIdleSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(skip.Fingerprint(), strict.Fingerprint()) {
		t.Error("idle-skipped and strict-stepped sampled reports differ")
	}
}

// TestSampledOffset: a phase-shifted plan still reconstructs a sane
// estimate (windows start at Offset + k·Interval).
func TestSampledOffset(t *testing.T) {
	k, err := perf.KernelByName("straight-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	plan := densePlan()
	plan.Offset = 512
	rep, err := sampling.Run(tgt, plan, sampling.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) == 0 {
		t.Fatal("offset plan produced no windows")
	}
	for _, w := range rep.Windows {
		if (w.Start-plan.Offset)%plan.Interval != 0 {
			t.Errorf("window starts at %d, not on the offset grid", w.Start)
		}
	}
	if rep.IPC <= 0 {
		t.Errorf("offset plan IPC = %v", rep.IPC)
	}
}

// requireNoLeak fails the test unless the goroutine count returns to
// base: Run waits for its workers, but a goroutine that has signalled
// completion may still be counted for a moment after it.
func requireNoLeak(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Run returned, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// interruptOnWrite sets the flag when the program prints, which the
// workloads do only just before they exit.
type interruptOnWrite struct{ flag *atomic.Bool }

func (w interruptOnWrite) Write(p []byte) (int, error) {
	w.flag.Store(true)
	return len(p), nil
}

// TestSampledInterruptWindows: an Interrupt set while windows are in
// flight cancels them and Run returns uarch.ErrInterrupted. The plan
// puts two checkpoints in the program, and each window's warmup runs to
// the exit in detail, so both windows are still simulating when the
// fast-forward reaches the program's final print and sets the flag.
func TestSampledInterruptWindows(t *testing.T) {
	k, err := perf.KernelByName("straight-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 4})
	m := straightemu.New(tgt.Img)
	if _, err := m.Run(1 << 30); err != nil {
		t.Fatal(err)
	}
	total := m.InstCount()
	plan := sampling.Plan{Interval: total/2 + 1, Warmup: total, Window: 1024}

	base := runtime.NumGoroutine()
	var stop atomic.Bool
	_, err = sampling.Run(tgt, plan, sampling.Options{Workers: 2, Output: interruptOnWrite{&stop}, Interrupt: &stop})
	if !errors.Is(err, uarch.ErrInterrupted) {
		t.Fatalf("Run = %v, want %v", err, uarch.ErrInterrupted)
	}
	requireNoLeak(t, base)
}

// TestSampledInsnCap: a MaxInsns cap below the program's length is the
// "did not exit" error, after the windows already submitted finish.
func TestSampledInsnCap(t *testing.T) {
	k, err := perf.KernelByName("ss-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	base := runtime.NumGoroutine()
	_, err = sampling.Run(tgt, densePlan(), sampling.Options{Workers: 2, MaxInsns: 4 * densePlan().Interval})
	if err == nil || !strings.Contains(err.Error(), "did not exit within 4096 instructions") {
		t.Fatalf("Run = %v, want the did-not-exit error", err)
	}
	requireNoLeak(t, base)
}

// TestSampledWindowFailure: a failing window stops the fast-forward
// early and Run returns the lowest-index window error. A closed store
// fails every window's Put. The workload prints only before it exits,
// so empty output shows the fast-forward stopped short of the exit.
func TestSampledWindowFailure(t *testing.T) {
	k, err := perf.KernelByName("straight-2way")
	if err != nil {
		t.Fatal(err)
	}
	tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "closed.store"), resultstore.Options{Salt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		base := runtime.NumGoroutine()
		var out bytes.Buffer
		_, err := sampling.Run(tgt, densePlan(), sampling.Options{Workers: workers, Store: store, Output: &out})
		if !errors.Is(err, os.ErrInvalid) {
			t.Fatalf("workers=%d: Run = %v, want a window store error wrapping %v", workers, err, os.ErrInvalid)
		}
		// With one worker, windows run in interval order, so window 0 is
		// the first (and lowest-index) failure.
		if workers == 1 && !strings.Contains(err.Error(), "sampling: window 0 @0: store put:") {
			t.Errorf("workers=1: Run = %v, want window 0's error", err)
		}
		if out.Len() != 0 {
			t.Errorf("workers=%d: the fast-forward ran to the exit (output %q) after a window failed", workers, out.String())
		}
		requireNoLeak(t, base)
	}
}

// TestPlanValidate pins the degenerate-plan rejections.
func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		p    sampling.Plan
		ok   bool
	}{
		{"default", sampling.DefaultPlan(), true},
		{"zero-window", sampling.Plan{Interval: 100, Warmup: 10}, false},
		{"zero-interval", sampling.Plan{Window: 10}, false},
		{"warmup-overlap", sampling.Plan{Interval: 100, Warmup: 60, Window: 60}, true},
		{"full-tile", sampling.Plan{Interval: 100, Warmup: 40, Window: 100}, true},
		{"double-count", sampling.Plan{Interval: 100, Warmup: 0, Window: 101}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSampledUnknownPolicy pins the NewTarget error path.
func TestSampledUnknownPolicy(t *testing.T) {
	if _, err := sampling.NewTarget("vliw", perf.Kernels()[0].Cfg, nil); err == nil {
		t.Fatal("NewTarget accepted an unknown policy")
	}
}

// TestLongWorkloadFullRun pins the long-running workload tier: the
// DhrystoneLong kernel must retire 10–50M instructions at the
// bench-standard iteration count and exit cleanly on both ISAs. Gated
// behind -short only for the slower RISC-V build.
func TestLongWorkloadFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long workload full run skipped in -short mode")
	}
	const iters = 300
	check := func(name string, count uint64, exited bool, code int32) {
		if !exited || code != 0 {
			t.Fatalf("%s: exited=%v code=%d, want clean exit", name, exited, code)
		}
		if count < 10_000_000 || count > 50_000_000 {
			t.Errorf("%s: retired %d instructions, want 10M–50M", name, count)
		}
		t.Logf("%s: retired %d instructions", name, count)
	}

	sim, err := bench.BuildSTRAIGHT(workloads.DhrystoneLong, iters, 127, bench.ModeREP)
	if err != nil {
		t.Fatal(err)
	}
	sm := straightemu.New(sim)
	if err := sm.RunUntil(100_000_000); err != nil {
		t.Fatal(err)
	}
	sx, scode := sm.Exited()
	check("straight", sm.InstCount(), sx, scode)

	rim, err := bench.BuildRISCV(workloads.DhrystoneLong, iters)
	if err != nil {
		t.Fatal(err)
	}
	rm := riscvemu.New(rim)
	if err := rm.RunUntil(100_000_000); err != nil {
		t.Fatal(err)
	}
	rx, rcode := rm.Exited()
	check("riscv", rm.InstCount(), rx, rcode)
}
