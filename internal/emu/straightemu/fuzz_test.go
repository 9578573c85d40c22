package straightemu

import (
	"bytes"
	"testing"
)

// FuzzCheckpointUnmarshal feeds arbitrary bytes to the checkpoint
// decoder, which reads them back from the on-disk result store. Decoding
// must never panic, and anything that decodes must re-encode to a fixed
// point: bytes that decode and encode identically again. The encoding
// is canonical and covers every field, so equal encodings are equal
// states. Only the first re-encoding may differ from the input, because
// MarshalBinary omits all-zero pages that DecodeBinary accepts. The
// seeds are real marshalled checkpoints, so they replay in go test.
func FuzzCheckpointUnmarshal(f *testing.F) {
	for _, steps := range []int{0, 3, 17, 40} {
		_, ck := marshalMachine(f, steps)
		enc, err := ck.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck Checkpoint
		if ck.UnmarshalBinary(data) != nil {
			return
		}
		enc, err := ck.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded checkpoint does not marshal: %v", err)
		}
		var again Checkpoint
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		enc2, err := again.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
