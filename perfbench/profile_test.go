package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

var sink [][]byte

//go:noinline
func allocateForProfile() {
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
}

// TestDecodeProfile round-trips a real runtime/pprof profile (a heap
// profile, which uses the same encoding as the CPU profile and is
// deterministic to provoke) through the decoder.
func TestDecodeProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocateForProfile()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".allocateForProfile") {
				found = true
			}
		}
	}
	if len(samples) == 0 || !found {
		t.Fatalf("decoded %d samples; allocateForProfile on a stack: %v", len(samples), found)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestBucket(t *testing.T) {
	const eng = "straight/internal/cores/engine.(*Core[go.shape.struct {}])."
	b := bucket([]sample{
		{count: 4, stack: []string{"straight/internal/uarch.(*Cache).Access", eng + "issue", eng + "step", "main.main"}},
		{count: 3, stack: []string{"runtime.duffcopy", eng + "fetch", eng + "step"}},
		{count: 2, stack: []string{"straight/internal/emu/riscvemu.(*Machine).Step", "straight/internal/sampling.Run"}},
		{count: 1, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
	})
	if b.total != 10 || b.engine != 7 {
		t.Fatalf("total %d engine %d, want 10 and 7", b.total, b.engine)
	}
	want := map[string]int64{"engine": 7, "emu": 2, "runtime": 1}
	for l, n := range want {
		if b.layer[l] != n {
			t.Errorf("layer %s: %d samples, want %d", l, b.layer[l], n)
		}
	}
	if b.stage["issue"] != 4 || b.stage["fetch"] != 3 || b.duffcopy != 3 || b.gc != 1 {
		t.Errorf("stage %v duffcopy %d gc %d", b.stage, b.duffcopy, b.gc)
	}
}
