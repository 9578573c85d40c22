package straightemu

import (
	"bytes"
	"testing"

	"straight/internal/emu"
	"straight/internal/sasm"
)

// marshalSrc loops with an open stack frame and live memory traffic, so
// a mid-run checkpoint carries non-trivial SP, ring, and heap state.
const marshalSrc = `
main:
    SPADD -8         # open frame; result = new SP
    ADDi [0], 1234
    ST [2], [1]      # mem[SP+0] = 1234 (touches a fresh stack page)
    ADDi [0], 0      # a = 0
    ADDi [0], 1      # b = 1
    ADDi [0], 10     # n = 10
    NOP              # distance fixing vs back-edge J
loop:                # frame: [2]=n, [3]=b, [4]=a
    BEZ [2], done
    ADD [4], [5]     # t = b + a
    ADDi [4], -1     # n-1
    RMOV [6]         # a' = old b
    RMOV [3]         # b' = t
    RMOV [3]         # n' = n-1
    J loop
done:
    SYS puti, [4]    # fib result
    SPADD 0          # result = SP (frame base)
    LD [1], 0        # reload the 1234 spilled before the loop
    SYS puti, [1]
    SPADD 8          # close frame
    ADDi [0], 0
    SYS exit, [1]
`

func marshalMachine(t testing.TB, steps int) (*Machine, *emu.Checkpoint) {
	t.Helper()
	im, err := sasm.Assemble(marshalSrc)
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

func finish(t *testing.T, m *Machine, out *bytes.Buffer) (uint64, int32, string) {
	t.Helper()
	m.SetOutput(out)
	if _, err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	_, code := m.Exited()
	return m.InstCount(), code, out.String()
}

// TestCheckpointMarshalRoundTrip: two checkpoints of the same
// architectural state must encode to identical bytes (the
// canonical-encoding property the content-addressed window cache relies
// on), and a checkpoint restored into a fresh machine must reproduce
// those bytes and drive it to the identical final state as the original.
func TestCheckpointMarshalRoundTrip(t *testing.T) {
	m, ck := marshalMachine(t, 17)
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
	_, ckB := marshalMachine(t, 17)
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

	var wantOut, gotOut bytes.Buffer
	m.Restore(ck)
	wantCount, wantCode, want := finish(t, m, &wantOut)
	gotCount, gotCode, got := finish(t, fresh, &gotOut)
	if gotCount != wantCount || gotCode != wantCode || got != want {
		t.Fatalf("restored machine replays to (count=%d code=%d out=%q), original to (count=%d code=%d out=%q)",
			gotCount, gotCode, got, wantCount, wantCode, want)
	}
}
