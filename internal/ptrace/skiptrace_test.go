package ptrace_test

import (
	"bytes"
	"reflect"
	"testing"

	"straight/internal/bench"
	"straight/internal/cores/engine"
	"straight/internal/cores/sscore"
	"straight/internal/cores/straightcore"
	"straight/internal/ptrace"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

// TestTraceIdenticalWithIdleSkip is the acceptance check of idle-skip
// trace replay: with a tracer attached, a skipped window replays its
// per-cycle trace records (cycle marker, charged stall, occupancy
// sample), so the Kanata byte stream and the windowed time series are
// identical whether the fast path is on or off — `straight-trace`
// output cannot change when skipping is enabled. The memory-bound
// configuration makes the skipped spans long and frequent, and
// micro-branch adds fetch redirects and memory-dependence recoveries at
// skip-window boundaries. Window 500 also pins that skipped spans never
// produce empty series windows: each replayed cycle carries its stall
// cause into the window it belongs to.
func TestTraceIdenticalWithIdleSkip(t *testing.T) {
	t.Run("straight", func(t *testing.T) {
		im, err := bench.BuildSTRAIGHT(workloads.MicroBranch, 1, 0, bench.ModeREP)
		if err != nil {
			t.Fatal(err)
		}
		cfg := uarch.Straight4WayMemBound()
		run := func(noskip bool) ([]byte, *ptrace.Series, uarch.Stats, int64) {
			var buf bytes.Buffer
			tr := ptrace.New(&buf, ptrace.Config{Window: 500})
			opts := engine.Options{MaxCycles: 200_000_000, Tracer: tr, NoIdleSkip: noskip}
			core := straightcore.New(cfg, im, opts)
			res, err := core.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), tr.Series(), res.Stats, core.SkipStats().SkippedCycles
		}
		skipTrace, skipSeries, skipStats, skipped := run(false)
		plainTrace, plainSeries, plainStats, _ := run(true)
		if skipped == 0 {
			t.Fatal("no cycles were skipped; the test exercises nothing")
		}
		if !reflect.DeepEqual(skipStats, plainStats) {
			t.Errorf("stats differ between skip modes:\nskip:  %+v\nplain: %+v", skipStats, plainStats)
		}
		if !bytes.Equal(skipTrace, plainTrace) {
			t.Errorf("Kanata trace differs between skip modes: %d vs %d bytes", len(skipTrace), len(plainTrace))
		}
		if !reflect.DeepEqual(skipSeries, plainSeries) {
			t.Errorf("windowed series differs between skip modes")
		}
	})

	t.Run("ss", func(t *testing.T) {
		im, err := bench.BuildRISCV(workloads.MicroBranch, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := uarch.SS4WayMemBound()
		run := func(noskip bool) ([]byte, *ptrace.Series, uarch.Stats, int64) {
			var buf bytes.Buffer
			tr := ptrace.New(&buf, ptrace.Config{Window: 500})
			opts := engine.Options{MaxCycles: 200_000_000, Tracer: tr, NoIdleSkip: noskip}
			core := sscore.New(cfg, im, opts)
			res, err := core.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), tr.Series(), res.Stats, core.SkipStats().SkippedCycles
		}
		skipTrace, skipSeries, skipStats, skipped := run(false)
		plainTrace, plainSeries, plainStats, _ := run(true)
		if skipped == 0 {
			t.Fatal("no cycles were skipped; the test exercises nothing")
		}
		if !reflect.DeepEqual(skipStats, plainStats) {
			t.Errorf("stats differ between skip modes:\nskip:  %+v\nplain: %+v", skipStats, plainStats)
		}
		if !bytes.Equal(skipTrace, plainTrace) {
			t.Errorf("Kanata trace differs between skip modes: %d vs %d bytes", len(skipTrace), len(plainTrace))
		}
		if !reflect.DeepEqual(skipSeries, plainSeries) {
			t.Errorf("windowed series differs between skip modes")
		}
	})
}
