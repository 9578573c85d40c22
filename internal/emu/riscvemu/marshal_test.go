package riscvemu

import (
	"bytes"
	"testing"

	"straight/internal/emu"
	"straight/internal/rasm"
)

// marshalSrc loops with live stack traffic so a mid-run checkpoint
// carries non-trivial register, counter, and memory state.
const marshalSrc = `
main:
    addi sp, sp, -16
    addi t0, zero, 1234
    sw   t0, 0(sp)
    addi t1, zero, 10      # n
    addi t2, zero, 0       # acc
loop:
    beq  t1, zero, done
    add  t2, t2, t1
    addi t1, t1, -1
    j    loop
done:
    lw   t3, 0(sp)
    add  a0, t2, t3        # 55 + 1234 = 1289
    addi sp, sp, 16
    addi a7, zero, 0
    ecall
`

func marshalMachine(t testing.TB, steps int) (*Machine, *emu.Checkpoint) {
	t.Helper()
	im, err := rasm.Assemble(marshalSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := New(im)
	for i := 0; i < steps; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return m, m.Checkpoint()
}

func finishRun(t *testing.T, m *Machine) (uint64, int32, uint32) {
	t.Helper()
	for m.Step() == nil {
	}
	exited, code := m.Exited()
	if !exited {
		t.Fatal("machine did not exit")
	}
	return m.InstCount(), code, m.PC()
}

// TestCheckpointMarshalRoundTrip: two checkpoints of the same
// architectural state must encode to identical bytes (the
// canonical-encoding property the content-addressed window cache relies
// on), and a checkpoint restored into a fresh machine must reproduce
// those bytes and drive it to the identical final state as the original.
func TestCheckpointMarshalRoundTrip(t *testing.T) {
	m, ck := marshalMachine(t, 13)
	enc, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("two marshals of one checkpoint differ")
	}
	// A second, independent machine reaching the same state must encode
	// identically (canonical bytes, not pointer-dependent ones).
	_, ckB := marshalMachine(t, 13)
	encB, err := ckB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, encB) {
		t.Fatal("checkpoints of identical states encode differently")
	}

	fresh := New(m.Image)
	fresh.Restore(ck)
	encR, err := fresh.Checkpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, encR) {
		t.Fatal("a restored machine's checkpoint encodes differently")
	}

	m.Restore(ck)
	wantCount, wantCode, wantPC := finishRun(t, m)
	if wantCode != 1289 {
		t.Fatalf("exit code = %d, want 1289", wantCode)
	}
	gotCount, gotCode, gotPC := finishRun(t, fresh)
	if gotCount != wantCount || gotCode != wantCode || gotPC != wantPC {
		t.Fatalf("restored machine replays to (count=%d code=%d pc=%#x), original to (count=%d code=%d pc=%#x)",
			gotCount, gotCode, gotPC, wantCount, wantCode, wantPC)
	}
}
