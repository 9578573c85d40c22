package riscvemu

import (
	"errors"
	"testing"

	"straight/internal/rasm"
)

// TestCheckpointRestore mirrors the straightemu checkpoint test: a mid-run
// snapshot must replay to the identical final state, repeatedly.
func TestCheckpointRestore(t *testing.T) {
	im, err := rasm.Assemble(`
main:
    addi sp, sp, -16
    addi t0, zero, 7
    sw   t0, 0(sp)
    lw   t1, 0(sp)
    mul  a0, t0, t1
    addi sp, sp, 16
    addi a7, zero, 0
    ecall
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(im)
	for i := 0; i < 3; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp := m.Checkpoint()
	if cp.Count != 3 {
		t.Fatalf("checkpoint count = %d, want 3", cp.Count)
	}
	for m.Step() == nil {
	}
	wantExited, wantCode := m.Exited()
	wantPC := m.PC()
	if !wantExited || wantCode != 49 {
		t.Fatalf("exit (%v,%d), want (true,49)", wantExited, wantCode)
	}
	for round := 0; round < 2; round++ {
		m.Restore(cp)
		if m.InstCount() != 3 {
			t.Fatalf("restored count = %d, want 3", m.InstCount())
		}
		for m.Step() == nil {
		}
		gotExited, gotCode := m.Exited()
		if gotExited != wantExited || gotCode != wantCode || m.PC() != wantPC {
			t.Fatalf("round %d: state (%v,%d,pc=%#x) != (%v,%d,pc=%#x)",
				round, gotExited, gotCode, m.PC(), wantExited, wantCode, wantPC)
		}
	}
}

// TestFaultKinds pins the riscvemu fault classification the lockstep
// oracle relies on to separate program faults from core divergence.
func TestFaultKinds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind FaultKind
	}{
		{"misaligned-load", "main:\n addi t0, zero, 2\n lw t1, 0(t0)\n", FaultMisaligned},
		{"bad-sys", "main:\n addi a7, zero, 99\n ecall\n", FaultBadSys},
		{"insn-limit", "main:\n j main\n", FaultLimit},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			im, err := rasm.Assemble(c.src)
			if err != nil {
				t.Fatal(err)
			}
			m := New(im)
			_, err = m.Run(16)
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("expected *Fault, got %T: %v", err, err)
			}
			if f.Kind != c.kind {
				t.Errorf("fault kind = %v, want %v (%v)", f.Kind, c.kind, f)
			}
		})
	}
}
