package uarch

// TAGE: an 8-component tagged-geometric-history predictor in the spirit
// of Seznec's CBP-TAGE (paper Fig 14 uses an "8-component CBP-TAGE"):
// one bimodal base table plus seven tagged tables with geometrically
// increasing history lengths {5..130}. Usefulness counters steer
// allocation and a use-alt-on-newly-allocated counter reduces cold
// mispredictions.
//
// The speculative global history is a 192-bit shift register; every
// prediction checkpoints it (plus the provider context) in a bounded
// ring, and Recover restores the checkpoint on a misprediction — so deep
// speculation never corrupts training state.
//
// Each tagged table hashes its history window through three folded
// histories (the index and two tag hashes). As in CBP-TAGE they are
// circular shift registers updated on every history push, so a
// prediction reads them instead of re-folding up to 130 history bits.

const (
	tageTables   = 7
	tageTagBits  = 9
	tageIdxBits  = 10 // 1K entries per tagged table
	tageBaseBits = 13 // 8K bimodal entries
	tageMetaRing = 8192
)

// Geometric history lengths (min 5, max 130, ratio ~1.72).
var tageHistLens = [tageTables]int{5, 9, 15, 26, 44, 76, 130}

type tageEntry struct {
	ctr int8 // -4..3
	tag uint16
	use uint8 // 0..3
}

type tageHistory [3]uint64 // bit 0 = most recent outcome

func (h *tageHistory) push(taken bool) {
	carry1 := h[0] >> 63
	carry2 := h[1] >> 63
	h[0] = h[0]<<1 | b2u(taken)
	h[1] = h[1]<<1 | carry1
	h[2] = h[2]<<1 | carry2
}

// bit returns the outcome i pushes ago.
func (h *tageHistory) bit(i int) uint16 { return uint16(h[i/64]>>(uint(i)%64)) & 1 }

// tageFoldBits are the widths of each table's three folded histories:
// the index hash and the two tag hashes.
var tageFoldBits = [3]uint{tageIdxBits, tageTagBits, tageTagBits - 1}

// tageFoldOut[i][k] is the bit of fold k that table i's oldest history
// bit lands in (history length mod fold width): where the bit leaving
// the window on a push must be cancelled.
var tageFoldOut = func() (out [tageTables][3]uint) {
	for i, n := range tageHistLens {
		for k, w := range tageFoldBits {
			out[i][k] = uint(n) % w
		}
	}
	return out
}()

// tageFolds[i][k] is the most recent tageHistLens[i] history bits
// folded into tageFoldBits[k] bits: bit j of the history is XORed into
// bit j mod width.
type tageFolds [tageTables][3]uint16

// push shifts one outcome into the folds. Folding the shifted history
// equals rotating every fold left by one within its width, adding the
// new bit at 0, and cancelling the bit that left the window (h is the
// history before the push).
func (f *tageFolds) push(h *tageHistory, taken bool) {
	in := uint16(b2u(taken))
	for i, n := range tageHistLens {
		out, pos := h.bit(n-1), &tageFoldOut[i]
		f[i][0] = rotPush(f[i][0], tageIdxBits, in, out<<pos[0])
		f[i][1] = rotPush(f[i][1], tageTagBits, in, out<<pos[1])
		f[i][2] = rotPush(f[i][2], tageTagBits-1, in, out<<pos[2])
	}
}

// rotPush rotates the w-bit fold v left by one and XORs in the new bit
// (at 0) and the cancelled old bit (already shifted into place).
func rotPush(v uint16, w uint, in, out uint16) uint16 {
	return (v<<1 | v>>(w-1) ^ in ^ out) & (1<<w - 1)
}

// tageMeta is a prediction's checkpoint. Update recomputes the table
// indices and tags from the branch PC and the checkpointed folds.
type tageMeta struct {
	hist     tageHistory
	folds    tageFolds
	provider int8
	pred     bool
	provPred bool
	altPred  bool
}

// TAGE is the 8-component predictor.
type TAGE struct {
	base   []uint8
	tables [tageTables][]tageEntry
	hist   tageHistory
	folds  tageFolds
	useAlt int8
	rng    uint32

	metas  [tageMetaRing]tageMeta
	nextID uint64

	Allocations uint64
}

// NewTAGE builds the predictor.
func NewTAGE() *TAGE {
	t := &TAGE{base: make([]uint8, 1<<tageBaseBits), rng: 0x9E3779B9}
	for i := range t.base {
		t.base[i] = 1
	}
	for i := 0; i < tageTables; i++ {
		t.tables[i] = make([]tageEntry, 1<<tageIdxBits)
	}
	return t
}

func tageBaseIdx(pc uint32) uint32 { return (pc >> 2) & (1<<tageBaseBits - 1) }

// tageIndex and tageTag hash the branch PC with one table's folds.
func tageIndex(pc uint32, f *[3]uint16) uint16 {
	return uint16((pc>>2 ^ pc>>(2+tageIdxBits) ^ uint32(f[0])) & (1<<tageIdxBits - 1))
}

func tageTag(pc uint32, f *[3]uint16) uint16 {
	return uint16((pc>>2 ^ uint32(f[1]) ^ uint32(f[2])<<1) & (1<<tageTagBits - 1))
}

// push records one outcome in the speculative history and its folds.
func (t *TAGE) push(taken bool) {
	t.folds.push(&t.hist, taken)
	t.hist.push(taken)
}

// Predict implements DirPredictor. The checkpoint is built in place in
// its ring slot; every field is written, so a stale slot leaks nothing.
func (t *TAGE) Predict(pc uint32) (bool, uint64) {
	id := t.nextID
	t.nextID++
	m := &t.metas[id%tageMetaRing]
	m.hist = t.hist
	m.folds = t.folds
	m.provider = -1
	m.provPred = false
	var provider *tageEntry
	alt := -1
	for i := tageTables - 1; i >= 0; i-- {
		f := &t.folds[i]
		e := &t.tables[i][tageIndex(pc, f)]
		if e.tag == tageTag(pc, f) {
			if m.provider < 0 {
				m.provider = int8(i)
				m.provPred = e.ctr >= 0
				provider = e
			} else {
				alt = i
				m.altPred = e.ctr >= 0
				break
			}
		}
	}
	basePred := t.base[tageBaseIdx(pc)] >= 2
	if alt < 0 {
		m.altPred = basePred
	}
	m.pred = basePred
	if e := provider; e != nil {
		weak := e.ctr == 0 || e.ctr == -1
		if weak && e.use == 0 && t.useAlt >= 0 {
			m.pred = m.altPred
		} else {
			m.pred = m.provPred
		}
	}
	t.push(m.pred)
	return m.pred, id
}

// Update implements DirPredictor.
func (t *TAGE) Update(pc uint32, taken bool, metaID uint64) {
	m := &t.metas[metaID%tageMetaRing]
	correct := m.pred == taken

	if m.provider >= 0 {
		e := &t.tables[m.provider][tageIndex(pc, &m.folds[m.provider])]
		bumpCtr(&e.ctr, taken)
		if m.provPred != m.altPred {
			if m.provPred == taken {
				if e.use < 3 {
					e.use++
				}
			} else if e.use > 0 {
				e.use--
			}
		}
	} else {
		b := &t.base[tageBaseIdx(pc)]
		if taken && *b < 3 {
			*b++
		}
		if !taken && *b > 0 {
			*b--
		}
	}

	// use-alt counter training on weak providers.
	if m.provider >= 0 && m.provPred != m.altPred {
		if m.altPred == taken && t.useAlt < 7 {
			t.useAlt++
		} else if m.provPred == taken && t.useAlt > -8 {
			t.useAlt--
		}
	}

	// Allocate a longer-history entry on misprediction.
	if !correct && int(m.provider) < tageTables-1 {
		start := int(m.provider) + 1
		allocated := false
		for i := start; i < tageTables; i++ {
			e := &t.tables[i][tageIndex(pc, &m.folds[i])]
			if e.use == 0 {
				e.tag = tageTag(pc, &m.folds[i])
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				e.use = 0
				t.Allocations++
				allocated = true
				break
			}
		}
		if !allocated {
			t.rng = t.rng*1664525 + 1013904223
			i := start + int(t.rng%uint32(tageTables-start))
			e := &t.tables[i][tageIndex(pc, &m.folds[i])]
			if e.use > 0 {
				e.use--
			}
		}
	}
}

func bumpCtr(c *int8, taken bool) {
	if taken && *c < 3 {
		*c++
	}
	if !taken && *c > -4 {
		*c--
	}
}

// Recover implements DirPredictor: restore the checkpointed history and
// push the actual outcome.
func (t *TAGE) Recover(metaID uint64, taken bool) {
	m := &t.metas[metaID%tageMetaRing]
	t.hist = m.hist
	t.folds = m.folds
	t.push(taken)
}

// Name implements DirPredictor.
func (t *TAGE) Name() string { return "tage" }
