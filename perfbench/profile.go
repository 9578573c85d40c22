package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// protocol buffers, profile.proto) far enough to bucket samples by
// function, so the benchmark needs neither a new module dependency nor
// a `go tool pprof` subprocess.

// sample is one decoded profile sample: its count and its stack as
// function names, leaf first (inlined frames included).
type sample struct {
	count int64
	stack []string
}

// decodeProfile parses a gzipped pprof profile.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		smp := sample{count: s.vals[0]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					smp.stack = append(smp.stack, strs[i])
				}
			}
		}
		out = append(out, smp)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the top-level fields of one protobuf message, handing
// varints in v and length-delimited payloads in b.
func fields(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either
// unpacked (one value in v) or packed (a run of varints in b).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// layerPackages maps the repository's modules to benchmark layers; a
// sample is charged to the layer of its innermost repository frame.
var layerPackages = []struct{ prefix, layer string }{
	{"straight/internal/minic.", "compile"},
	{"straight/internal/irgen.", "compile"},
	{"straight/internal/ir.", "compile"},
	{"straight/internal/backend/", "compile"},
	{"straight/internal/sasm.", "compile"},
	{"straight/internal/rasm.", "compile"},
	{"straight/internal/sverify.", "compile"},
	{"straight/internal/emu/", "emu"},
	{"straight/internal/cores/", "engine"},
	{"straight/internal/uarch.", "engine"},
	{"straight/internal/sampling.", "sampling"},
	{"straight/internal/bench.", "bench"},
	{"straight/internal/resultstore.", "store"},
	{"straight/internal/served.", "served"},
}

// stageFuncs maps the engine's per-cycle stage methods to stage names.
var stageFuncs = map[string]string{
	"fetch":             "fetch",
	"dispatch":          "dispatch",
	"issue":             "issue",
	"completeExecution": "complete",
	"commit":            "commit",
}

// buckets is a profile folded into the shares the benchmark reports.
type buckets struct {
	total    int64
	layer    map[string]int64 // by innermost repository frame; "runtime" otherwise
	engine   int64            // samples with any engine frame on the stack
	stage    map[string]int64 // engine samples under each stage method
	duffcopy int64            // leaf runtime.duffcopy
	gc       int64            // stacks inside the garbage collector
}

// bucket folds samples by layer, engine stage, runtime.duffcopy and GC.
func bucket(samples []sample) buckets {
	b := buckets{layer: map[string]int64{}, stage: map[string]int64{}}
	for _, s := range samples {
		b.total += s.count
		layer := "runtime"
	frames:
		for _, fn := range s.stack {
			for _, lp := range layerPackages {
				if strings.HasPrefix(fn, lp.prefix) {
					layer = lp.layer
					break frames
				}
			}
		}
		b.layer[layer] += s.count
		if len(s.stack) > 0 && s.stack[0] == "runtime.duffcopy" {
			b.duffcopy += s.count
		}
		inEngine, gc := false, false
		stage := ""
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, "straight/internal/cores/engine.") {
				inEngine = true
				if i := strings.LastIndex(fn, ")."); i >= 0 && stage == "" {
					stage = stageFuncs[fn[i+2:]]
				}
			}
			if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || fn == "runtime.gcAssistAlloc" ||
				fn == "runtime.gcDrain" || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
				gc = true
			}
		}
		if inEngine {
			b.engine += s.count
			if stage != "" {
				b.stage[stage] += s.count
			}
		}
		if gc {
			b.gc += s.count
		}
	}
	return b
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
