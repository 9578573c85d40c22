package sampling

import (
	"bytes"
	"path/filepath"
	"testing"

	"straight/internal/core"
	"straight/internal/resultstore"
	"straight/internal/uarch"
)

// fuzzSrc runs long enough for a handful of checkpoints under fuzzPlan.
const fuzzSrc = `
int main() {
    unsigned a = 1u;
    int i;
    for (i = 0; i < 400; i++) a = a * 3u + (unsigned)i;
    putint((int)(a & 1023u));
    return 0;
}
`

var fuzzPlan = Plan{Interval: 1024, Warmup: 128, Window: 512}

// storeEntries runs a small sampled plan against a fresh result store
// and returns what the run stored: the cached fast-forward sequence and
// every window payload. These are the bytes Run reads back from disk,
// so they seed the decoder fuzz targets below.
func storeEntries(f *testing.F) (ffEntry []byte, windows [][]byte) {
	f.Helper()
	prog, err := core.NewToolchain().CompileC(fuzzSrc, core.TargetRISCV, core.CompileOptions{})
	if err != nil {
		f.Fatal(err)
	}
	tgt, err := NewTarget("ss", uarch.SS2Way(), prog.Image)
	if err != nil {
		f.Fatal(err)
	}
	store, err := resultstore.Open(filepath.Join(f.TempDir(), "fuzz.store"), resultstore.Options{Salt: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer store.Close()
	if _, err := Run(tgt, fuzzPlan, Options{Workers: 1, Store: store}); err != nil {
		f.Fatal(err)
	}
	ffEntry, ok := store.Get(ffKey(tgt, fuzzPlan, defaultMaxInsns))
	if !ok {
		f.Fatal("run stored no fast-forward sequence")
	}
	seq, err := decodeFFSeq(ffEntry)
	if err != nil {
		f.Fatal(err)
	}
	if len(seq.encs) < 2 {
		f.Fatalf("seed run took %d checkpoints, want at least 2", len(seq.encs))
	}
	for _, enc := range seq.encs {
		key, err := windowKey(tgt, fuzzPlan, enc)
		if err != nil {
			f.Fatal(err)
		}
		raw, ok := store.Get(key)
		if !ok {
			f.Fatal("run stored no window for a checkpoint")
		}
		windows = append(windows, raw)
	}
	return ffEntry, windows
}

// FuzzDecodeFFSeq feeds arbitrary bytes to the cached fast-forward
// decoder. Decoding must never panic, and whatever decodes must
// re-encode to exactly the input: the framing has one encoding per
// sequence.
func FuzzDecodeFFSeq(f *testing.F) {
	ffEntry, _ := storeEntries(f)
	f.Add(ffEntry)
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := decodeFFSeq(data)
		if err != nil {
			return
		}
		if enc := encodeFFSeq(seq); !bytes.Equal(enc, data) {
			t.Fatalf("decoded sequence re-encodes to %d bytes that differ from the %d-byte input", len(enc), len(data))
		}
	})
}

// FuzzDecodeWindow feeds arbitrary bytes to the cached window decoder.
// Decoding must never panic, and whatever decodes must reach a fixed
// point after one re-encode (the first may differ: JSON accepts field
// order, spacing and case the encoder never writes).
func FuzzDecodeWindow(f *testing.F) {
	_, windows := storeEntries(f)
	for _, w := range windows {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeWindow(data)
		if err != nil {
			return
		}
		enc := encodeWindow(w)
		again, err := decodeWindow(enc)
		if err != nil {
			t.Fatalf("re-encoded window does not decode: %v", err)
		}
		if enc2 := encodeWindow(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
