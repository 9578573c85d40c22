package perf

import (
	"testing"

	"straight/internal/cores/engine"
	"straight/internal/emu"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/program"
)

// allocWarmupCycles runs the simulation deep into its main loop before
// measuring: pools, rings, the sparse memory's pages and the cache
// hierarchy are all at steady-state capacity by then.
const allocWarmupCycles = 200_000

// allocMeasureCycles is the per-sample window AllocsPerRun measures.
const allocMeasureCycles = 5_000

// allocIters sizes the workload so it cannot exit inside the warmup plus
// the eleven AllocsPerRun sample windows, even at 4-way IPC.
const allocIters = 3 * BenchIters

// runAllocBudget asserts the kernel's per-cycle step path performs zero
// heap allocations in steady state on the non-traced path. This is the
// enforcement half of the allocation-free kernel: any regression (a map
// in the issue loop, an escaping closure, slice append churn, a policy
// hook argument escaping through the interface) fails here before it
// shows up as a KIPS regression in CI.
func runAllocBudget(t *testing.T, k Kernel) {
	t.Helper()
	im, err := BuildImage(k, BenchWorkload, allocIters)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{MaxCycles: runCycleCap}
	c := NewCore(k, im, opts)
	if err := c.RunCycles(opts, allocWarmupCycles); err != nil {
		t.Fatal(err)
	}
	if c.HasExited() {
		t.Fatalf("workload exited during warmup (%d cycles); grow BenchIters", allocWarmupCycles)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.RunCycles(opts, allocMeasureCycles); err != nil {
			t.Fatal(err)
		}
	})
	if c.HasExited() {
		t.Fatalf("workload exited during measurement; grow BenchIters")
	}
	if allocs != 0 {
		t.Errorf("%s: %.1f heap allocations per %d steady-state cycles, want 0",
			k.Name, allocs, allocMeasureCycles)
	}
}

// allocKernels filters AllKernels plus the TAGE variants down to one
// kind: TAGE's Predict/Update/Recover are on the same budget as gshare.
func allocKernels(t *testing.T, kind CoreKind) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, k := range append(AllKernels(), tageKernels()...) {
		if k.Kind != kind {
			continue
		}
		k := k
		t.Run(k.Name, func(t *testing.T) { runAllocBudget(t, k) })
	}
}

// TestSteadyStateAllocsStraight enforces the zero-allocation budget on
// the STRAIGHT policy at both widths.
func TestSteadyStateAllocsStraight(t *testing.T) { allocKernels(t, KindStraight) }

// TestSteadyStateAllocsSS is the same budget for the superscalar
// policy: rename, free-list and ROB-walk machinery included.
func TestSteadyStateAllocsSS(t *testing.T) { allocKernels(t, KindSS) }

// TestSteadyStateAllocsCG is the same budget for the coarse-grain
// policy: block gating must not allocate either.
func TestSteadyStateAllocsCG(t *testing.T) { allocKernels(t, KindCG) }

// TestRestartKeepsDecodeTable: Restart on the core's own image must
// reuse the predecoded text table, so restarting for the next sample
// window allocates nothing. Only an image change rebuilds the table
// (TestResetEquivalence proves the rebuild correct); alternating two
// images shows that a rebuild would be visible as allocations here.
func TestRestartKeepsDecodeTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, name := range []string{"straight-2way", "ss-2way", "cg-2way"} {
		k, err := KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			im, err := BuildImage(k, BenchWorkload, 1)
			if err != nil {
				t.Fatal(err)
			}
			other := *im
			var ck *emu.Checkpoint
			if k.Kind == KindStraight {
				m := straightemu.New(im)
				if err := m.RunUntil(1000); err != nil {
					t.Fatal(err)
				}
				ck = m.Checkpoint()
			} else {
				m := riscvemu.New(im)
				if err := m.RunUntil(1000); err != nil {
					t.Fatal(err)
				}
				ck = m.Checkpoint()
			}
			c := NewCore(k, im, engine.Options{})
			restart := func(img *program.Image) {
				if err := c.Restart(img, ck); err != nil {
					t.Fatal(err)
				}
			}
			same := testing.AllocsPerRun(10, func() { restart(im) })
			alt := testing.AllocsPerRun(10, func() { restart(&other); restart(im) })
			if same != 0 || alt == 0 {
				t.Errorf("%.1f allocations per Restart on the same image (want 0), %.1f per pair of image changes (want > 0)",
					same, alt)
			}
		})
	}
}
