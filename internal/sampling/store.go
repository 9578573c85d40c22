package sampling

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"straight/internal/resultstore"
	"straight/internal/uarch"
)

// Window results are content-addressed: the key folds in the serialized
// checkpoint (which canonically encodes the entire architectural state
// the window starts from), the policy and full core configuration, and
// the whole interval plan. The plan is included in full because the
// functionally-warmed microarchitectural state a window adopts is a
// deterministic function of the architectural position *and* the
// warming schedule (Interval/Offset/WarmMem place the warming bursts).
// Anything that leaves all of those unchanged — re-running a sweep,
// growing the workload's tail after this window — hits the cache.
//
// Deliberately excluded from the key:
//   - NoIdleSkip: idle-skipping is proven cycle-exact (DESIGN.md §12),
//     so both stepping modes produce the same counters.
//   - Worker count: results are computed per window, independent of
//     scheduling.

// windowSchema versions both the key derivation and the stored payload;
// bump it whenever either changes shape so stale entries miss instead of
// decoding wrongly.
const windowSchema = "straight-sample-window-v3"

// ffSchema versions the cached fast-forward outcome: the checkpoint
// sequence plus the program's true instruction count and exit code.
// Keyed purely architecturally (ISA + image + checkpoint geometry), so
// every core policy and configuration on the same ISA shares one entry.
const ffSchema = "straight-sample-ffwd-v1"

// windowKey derives the content address of one sample window from the
// checkpoint's canonical serialization.
func windowKey(t *Target, plan Plan, enc []byte) (resultstore.Key, error) {
	cfg, err := json.Marshal(t.Cfg)
	if err != nil {
		return resultstore.Key{}, fmt.Errorf("marshal config: %w", err)
	}
	kh := resultstore.NewKeyHasher(windowSchema)
	kh.String("policy", t.Policy)
	kh.Bytes("config", cfg)
	kh.Bytes("checkpoint", enc)
	kh.Int("interval", int64(plan.Interval))
	kh.Int("warmup", int64(plan.Warmup))
	kh.Int("window", int64(plan.Window))
	kh.Int("offset", int64(plan.Offset))
	kh.Int("warm_mem", int64(plan.WarmMem))
	return kh.Sum(), nil
}

// ffKey derives the content address of a fast-forward outcome. Only the
// fields that shape the checkpoint sequence participate: the ISA, the
// semantic image content, where checkpoints are taken (Interval/Offset)
// and the instruction cap. Warmup/Window/WarmMem are window-time
// concerns and deliberately excluded, so plans that differ only in how
// they warm or measure share one cached fast-forward.
func ffKey(t *Target, plan Plan, limit uint64) resultstore.Key {
	kh := resultstore.NewKeyHasher(ffSchema)
	kh.String("isa", t.machine.ISA().Name)
	kh.Int("entry", int64(t.Img.Entry))
	kh.Int("text_base", int64(t.Img.TextBase))
	text := make([]byte, 0, 4*len(t.Img.Text))
	for _, w := range t.Img.Text {
		text = binary.LittleEndian.AppendUint32(text, w)
	}
	kh.Bytes("text", text)
	kh.Int("data_base", int64(t.Img.DataBase))
	kh.Bytes("data", t.Img.Data)
	kh.Int("interval", int64(plan.Interval))
	kh.Int("offset", int64(plan.Offset))
	kh.Int("limit", int64(limit))
	return kh.Sum()
}

// ffSeq is a fast-forward's outcome, as cached: each checkpoint's
// position and canonical serialization, plus the whole program's
// retired count and exit code.
type ffSeq struct {
	points []uint64 // checkpoint positions, strictly increasing
	encs   [][]byte // canonical checkpoint serializations, same order
	total  uint64
	exit   int32
}

// encodeFFSeq packs a fast-forward outcome:
//
//	u64 total, u32 exit-code (two's complement), u32 count,
//	count × (u64 start, u32 len, len bytes)
func encodeFFSeq(s *ffSeq) []byte {
	b := binary.LittleEndian.AppendUint64(nil, s.total)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.exit))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.points)))
	for i, start := range s.points {
		b = binary.LittleEndian.AppendUint64(b, start)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.encs[i])))
		b = append(b, s.encs[i]...)
	}
	return b
}

// decodeFFSeq rebuilds a cached fast-forward outcome, validating the
// framing and that checkpoint positions are strictly increasing and
// inside the program.
func decodeFFSeq(raw []byte) (*ffSeq, error) {
	if len(raw) < 16 {
		return nil, fmt.Errorf("sampling: fast-forward cache entry truncated (%d bytes)", len(raw))
	}
	s := &ffSeq{
		total: binary.LittleEndian.Uint64(raw),
		exit:  int32(binary.LittleEndian.Uint32(raw[8:])),
	}
	count := binary.LittleEndian.Uint32(raw[12:])
	raw = raw[16:]
	prev := int64(-1)
	for i := uint32(0); i < count; i++ {
		if len(raw) < 12 {
			return nil, fmt.Errorf("sampling: fast-forward cache entry truncated at checkpoint %d", i)
		}
		start := binary.LittleEndian.Uint64(raw)
		n := binary.LittleEndian.Uint32(raw[8:])
		raw = raw[12:]
		if uint64(len(raw)) < uint64(n) {
			return nil, fmt.Errorf("sampling: fast-forward cache checkpoint %d truncated", i)
		}
		if int64(start) <= prev || start >= s.total {
			return nil, fmt.Errorf("sampling: fast-forward cache checkpoint %d at %d out of order (total %d)", i, start, s.total)
		}
		prev = int64(start)
		s.points = append(s.points, start)
		s.encs = append(s.encs, raw[:n:n])
		raw = raw[n:]
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("sampling: fast-forward cache entry has %d trailing bytes", len(raw))
	}
	return s, nil
}

// windowData is the stored payload: the window's measurement, minus the
// identity fields (Index/Start/Key) that the plan re-derives on lookup.
type windowData struct {
	WarmupRetired uint64      `json:"warmup_retired"`
	Retired       uint64      `json:"retired"`
	Cycles        int64       `json:"cycles"`
	CPI           float64     `json:"cpi"`
	Stats         uarch.Stats `json:"stats"`
}

func encodeWindow(w WindowResult) []byte {
	b, err := json.Marshal(windowData{
		WarmupRetired: w.WarmupRetired,
		Retired:       w.Retired,
		Cycles:        w.Cycles,
		CPI:           w.CPI,
		Stats:         w.Stats,
	})
	if err != nil {
		// windowData is plain counters; marshaling cannot fail.
		panic(fmt.Sprintf("sampling: encode window: %v", err))
	}
	return b
}

// decodeWindow rebuilds a cached window and re-checks its internal
// consistency, so a store entry that decodes but carries damaged
// numbers is recomputed instead of trusted.
func decodeWindow(raw []byte) (WindowResult, error) {
	var d windowData
	if err := json.Unmarshal(raw, &d); err != nil {
		return WindowResult{}, err
	}
	w := WindowResult{
		WarmupRetired: d.WarmupRetired,
		Retired:       d.Retired,
		Cycles:        d.Cycles,
		CPI:           d.CPI,
		Stats:         d.Stats,
	}
	if err := validateWindow(w); err != nil {
		return WindowResult{}, err
	}
	return w, nil
}

// validateWindow asserts the light invariants a window delta does
// satisfy (the full uarch.Stats.Check applies only to whole runs: a
// window can legally retire instructions fetched before it started).
func validateWindow(w WindowResult) error {
	if w.Cycles < 0 {
		return fmt.Errorf("sampling: window has negative cycles %d", w.Cycles)
	}
	if w.Retired > 0 && w.Cycles == 0 {
		return fmt.Errorf("sampling: window retired %d instructions in zero cycles", w.Retired)
	}
	if w.Retired != w.Stats.Retired || w.Cycles != w.Stats.Cycles {
		return fmt.Errorf("sampling: window summary (retired=%d cycles=%d) disagrees with stats delta (retired=%d cycles=%d)",
			w.Retired, w.Cycles, w.Stats.Retired, w.Stats.Cycles)
	}
	if w.Retired > 0 {
		want := float64(w.Cycles) / float64(w.Retired)
		if w.CPI != want {
			return fmt.Errorf("sampling: window CPI %g disagrees with cycles/retired %g", w.CPI, want)
		}
	}
	return nil
}
