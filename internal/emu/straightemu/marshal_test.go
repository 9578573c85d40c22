package straightemu

import (
	"bytes"
	"testing"

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

func marshalMachine(t testing.TB, steps int) (*Machine, *Checkpoint) {
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

// TestCheckpointMarshalRoundTrip: a decoded checkpoint must drive a
// machine to the identical final state as the original, and two
// checkpoints of the same architectural state must encode to identical
// bytes (the canonical-encoding property the content-addressed window
// cache relies on).
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

	var dec Checkpoint
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if dec.Count() != ck.Count() || dec.PC() != ck.PC() || dec.SP() != ck.SP() {
		t.Fatalf("decoded header (count=%d pc=%#x sp=%#x) != original (count=%d pc=%#x sp=%#x)",
			dec.Count(), dec.PC(), dec.SP(), ck.Count(), ck.PC(), ck.SP())
	}

	var wantOut, gotOut bytes.Buffer
	m.Restore(ck)
	wantCount, wantCode, want := finish(t, m, &wantOut)
	m.Restore(&dec)
	gotCount, gotCode, got := finish(t, m, &gotOut)
	if gotCount != wantCount || gotCode != wantCode || got != want {
		t.Fatalf("decoded checkpoint replays to (count=%d code=%d out=%q), original to (count=%d code=%d out=%q)",
			gotCount, gotCode, got, wantCount, wantCode, want)
	}
}

// TestCheckpointUnmarshalCorrupted: every corruption class must be
// rejected, never silently half-loaded.
func TestCheckpointUnmarshalCorrupted(t *testing.T) {
	_, ck := marshalMachine(t, 17)
	enc, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), enc...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", enc[:10]},
		{"bad-magic", mut(func(b []byte) []byte { b[0] ^= 0xFF; return b })},
		{"bad-exited-flag", mut(func(b []byte) []byte { b[len(ckptMagic)+16] = 7; return b })},
		{"truncated-memory", enc[:len(enc)-5]},
		{"trailing-garbage", mut(func(b []byte) []byte { return append(b, 0xAB) })},
		{"inflated-page-count", mut(func(b []byte) []byte { b[ckptHeadSize]++; return b })},
	}
	for _, c := range cases {
		var dec Checkpoint
		if err := dec.UnmarshalBinary(c.data); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted corrupted input", c.name)
		}
	}
}
