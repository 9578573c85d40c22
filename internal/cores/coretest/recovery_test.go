package coretest_test

import (
	"testing"

	"straight/internal/backend/straightbe"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// TestSquashRecoveryRetirementStream is the deterministic squash/recovery
// unit test: micro-branch's data-dependent branches force mispredicts
// while the ROB holds younger speculative work, so every recovery has to
// squash mid-ROB and restart. The new RetireFn export observes the
// retirement stream from outside, and the test asserts it is exactly the
// functional emulator's stream — i.e. recovery restores the
// pre-speculation retirement state and not a single wrong-path
// instruction leaks. On STRAIGHT the same recovery must finish without a
// single ROB-walk step (the paper's one-ROB-read claim); the SS baseline
// must walk.
func TestSquashRecoveryRetirementStream(t *testing.T) {
	mod := buildIR(t, workloads.MicroBranch, 2)

	t.Run("straight", func(t *testing.T) {
		im := buildSTRAIGHT(t, mod, straightbe.Options{MaxDistance: 31, RedundancyElim: true})

		// Golden stream from the strict functional emulator.
		var want []straightemu.Retired
		m := straightemu.New(im)
		m.SetStrict(31)
		m.TraceFn = func(r straightemu.Retired) { want = append(want, r) }
		if _, err := m.Run(200_000_000); err != nil {
			t.Fatal(err)
		}

		cfg := uarch.Straight4Way()
		var got []uarch.Retirement
		opts := engine.Options{
			MaxCycles: 200_000_000,
			RetireFn: func(r uarch.Retirement) error {
				got = append(got, r)
				return nil
			},
		}
		core := straightcore.New(cfg, im, opts)
		res, err := core.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Mispredicts == 0 {
			t.Fatal("micro-branch must mispredict for this test to exercise squash recovery")
		}
		if res.Stats.ROBWalkSteps != 0 {
			t.Fatalf("STRAIGHT recovery walked the ROB %d times; the paper's mechanism needs zero", res.Stats.ROBWalkSteps)
		}
		compareStreams(t, len(want), len(got), func(i int) (uint32, uint32, bool, uint32, uint32) {
			hasVal := got[i].HasValue
			return want[i].PC, got[i].PC, hasVal, want[i].Result, got[i].Value
		})
	})

	t.Run("ss", func(t *testing.T) {
		im := buildRISCV(t, mod)

		var want []riscvemu.Retired
		m := riscvemu.New(im)
		m.TraceFn = func(r riscvemu.Retired) { want = append(want, r) }
		if _, err := m.Run(200_000_000); err != nil {
			t.Fatal(err)
		}

		cfg := uarch.SS4Way()
		var got []uarch.Retirement
		opts := engine.Options{
			MaxCycles: 200_000_000,
			RetireFn: func(r uarch.Retirement) error {
				got = append(got, r)
				return nil
			},
		}
		core := sscore.New(cfg, im, opts)
		res, err := core.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Mispredicts == 0 {
			t.Fatal("micro-branch must mispredict on the SS core too")
		}
		if res.Stats.ROBWalkSteps == 0 {
			t.Fatal("SS recovery must walk the ROB")
		}
		compareStreams(t, len(want), len(got), func(i int) (uint32, uint32, bool, uint32, uint32) {
			hasVal := got[i].HasValue && want[i].Inst.WritesRd() && want[i].Inst.Rd != 0
			return want[i].PC, got[i].PC, hasVal, want[i].Result, got[i].Value
		})
	})
}

// compareStreams checks stream lengths and per-retirement PC/value
// agreement through an index accessor, reporting the first mismatch.
func compareStreams(t *testing.T, nWant, nGot int, at func(i int) (wantPC, gotPC uint32, cmpVal bool, wantVal, gotVal uint32)) {
	t.Helper()
	if nWant != nGot {
		t.Fatalf("retirement stream length: emulator %d, core %d", nWant, nGot)
	}
	for i := 0; i < nWant; i++ {
		wantPC, gotPC, cmpVal, wantVal, gotVal := at(i)
		if wantPC != gotPC {
			t.Fatalf("retirement %d: core pc=%#x, emulator pc=%#x (wrong-path leak or lost retirement)", i, gotPC, wantPC)
		}
		if cmpVal && wantVal != gotVal {
			t.Fatalf("retirement %d pc=%#x: core value %#x, emulator value %#x", i, gotPC, gotVal, wantVal)
		}
	}
}

// TestSquashRecoveryDeterministic reruns the STRAIGHT side twice and
// requires identical cycle counts and stats: squash recovery must be a
// deterministic function of the program, not of allocator state.
func TestSquashRecoveryDeterministic(t *testing.T) {
	mod := buildIR(t, workloads.MicroBranch, 1)
	im := buildSTRAIGHT(t, mod, straightbe.Options{MaxDistance: 31, RedundancyElim: true})
	run := func() (int64, uint64, string) {
		opts := engine.Options{MaxCycles: 200_000_000}
		core := straightcore.New(uarch.Straight4Way(), im, opts)
		res, err := core.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles, res.Stats.Mispredicts, res.Output
	}
	c1, m1, o1 := run()
	c2, m2, o2 := run()
	if c1 != c2 || m1 != m2 || o1 != o2 {
		t.Fatalf("non-deterministic recovery: cycles %d vs %d, mispredicts %d vs %d, output %q vs %q",
			c1, c2, m1, m2, o1, o2)
	}
}
