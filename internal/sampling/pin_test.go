package sampling_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/perf"
	"straight/internal/sampling"
	"straight/internal/workloads"
)

// pinPositions are the retired-instruction counts at which the byte pins
// take a checkpoint: power-on, a few mid-run points of a real workload,
// and a count past the exit (the checkpoint then records the exit).
var pinPositions = []uint64{0, 1, 777, 5000, 1 << 30}

// TestCheckpointBytesPinned pins the SHA-256 of the canonical checkpoint
// encoding at several positions of Dhrystone on each ISA. The bytes are
// the content address of every sample window and are carried inside the
// cached fast-forward sequence, so any change to the layout, the magic
// strings or the memory framing would silently orphan every stored
// window. Change these digests only together with windowSchema/ffSchema.
func TestCheckpointBytesPinned(t *testing.T) {
	want := map[string][]string{
		"straight-2way": {
			"3e27fe632fd3fc266110aafd55b3a8a3cb4e396b9f5c5f6053fc220ba5223f0e",
			"1a958d4e400b868270bfbf3610fad4614cad8df552ea595f887a9f175b4cde5e",
			"78d49cbcb3f5262db1da4ff2786f4e0eefe13989d6386b0fd6c821e8b490fc2b",
			"814ee7c9bc5cf83b0132b836ff1c586c3a4bda03cca74223015af7d5e9f181b7",
			"a3df113cef64c3d91b5cbae5b421039e39b0a8e02db3602f98d0aa961b6b7a49",
		},
		"ss-2way": {
			"a35781628894b57d2be22533046e07fe192090ff91666fa3c56da006f5791e03",
			"74777d94e5833e3ed65ed64dc61fd09f8acf1da06576a701edb3fe05ab72ef04",
			"1dd9e5aa06190cec962f8633ec4f98ed87f816b217d74a0dbada8bd550f4e599",
			"0e84f749d42c273b222b23c6f13dfd6d698ddcf160092d3eea4c21d3ee6726da",
			"a124b4b8de30210b8240be432c04d7b269110a587e2add419d56d04c35043075",
		},
	}
	for _, name := range []string{"straight-2way", "ss-2way"} {
		k, err := perf.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		im, err := perf.BuildImage(k, workloads.Dhrystone, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		type machine interface {
			RunUntil(uint64) error
		}
		var m machine
		var marshal func() ([]byte, error)
		if k.Kind == perf.KindStraight {
			sm := straightemu.New(im)
			m, marshal = sm, func() ([]byte, error) { return sm.Checkpoint().MarshalBinary() }
		} else {
			rm := riscvemu.New(im)
			m, marshal = rm, func() ([]byte, error) { return rm.Checkpoint().MarshalBinary() }
		}
		for _, pos := range pinPositions {
			if err := m.RunUntil(pos); err != nil {
				t.Fatal(err)
			}
			enc, err := marshal()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			got = append(got, hex.EncodeToString(sum[:]))
		}
		if len(got) != len(want[name]) {
			t.Errorf("%s: got %d digests, want %d: %q", name, len(got), len(want[name]), got)
			continue
		}
		for i := range got {
			if got[i] != want[name][i] {
				t.Errorf("%s @%d: checkpoint sha256 %s, want %s", name, pinPositions[i], got[i], want[name][i])
			}
		}
	}
}

// TestWindowKeysPinned pins the result-store key of every window of one
// small dense plan per ISA. A key folds in the checkpoint bytes, the
// policy, the core configuration and the plan, so a refactor of any of
// them that changes a key shows up here before it orphans a store.
func TestWindowKeysPinned(t *testing.T) {
	want := map[string][]string{
		"straight-2way": {
			"1ae6acdf87dcc2bfabbf8729549b66452a47323f60602e267be5759e5cf413eb",
			"a9362c06e4eab13cd5c623ccc2743d225ac16f053f4ee6e98aaf287072b2f405",
			"2481e55d08ae36e5f63568b40c97529905a6f7b3c308947c53546ef818032b9f",
		},
		"ss-2way": {
			"70ef5430486437df1bc5a6c00c7dee3f7cb9ded42a84f4f063caec3fcb320c29",
			"1d04b60b07813a51c9c5243f3b8efe4deaa42f449046430f2431e785b050eed7",
			"90d3782d9a18947023227d3a9eb7fb113e632466ded13c15d11ead682fb27e0c",
		},
	}
	for _, name := range []string{"straight-2way", "ss-2way"} {
		k, err := perf.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tgt := buildTarget(t, k, matrixCase{w: workloads.MicroFib, iters: 1})
		rep, err := sampling.Run(tgt, sampling.Plan{Interval: 4096, Warmup: 256, Window: 1024}, sampling.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, w := range rep.Windows {
			got = append(got, w.Key)
		}
		if len(got) != len(want[name]) {
			t.Errorf("%s: got %d keys, want %d: %q", name, len(got), len(want[name]), got)
			continue
		}
		for i := range got {
			if got[i] != want[name][i] {
				t.Errorf("%s window %d: key %s, want %s", name, i, got[i], want[name][i])
			}
		}
	}
}
