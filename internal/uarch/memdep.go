package uarch

// MemDepPredictor is a collision-history memory-dependence predictor
// (paper §V-A lists "memory dependency prediction"). Loads that have
// previously violated (executed before an older overlapping store) are
// predicted "conservative" and wait for all older store addresses;
// others speculate freely. Entries decay so stale conservatism fades,
// but only on evidence of independence: a predicted-wait load that
// forwarded from an older store did depend on it and keeps its entry.
//
//lint:hotpath
type MemDepPredictor struct {
	table []uint8 // 2-bit saturating "collided" counters
	mask  uint32  //lint:resetless table geometry, fixed at construction
}

// NewMemDepPredictor builds the predictor with a power-of-two table.
func NewMemDepPredictor(entries int) *MemDepPredictor {
	return &MemDepPredictor{table: make([]uint8, entries), mask: uint32(entries - 1)}
}

func (m *MemDepPredictor) idx(pc uint32) uint32 { return (pc >> 2) & m.mask }

// ShouldWait predicts whether the load at pc must wait for older stores.
// It has no side effects, so issue and commit may both ask.
func (m *MemDepPredictor) ShouldWait(pc uint32) bool { return m.table[m.idx(pc)] >= 2 }

// RecordViolation trains the predictor after a disambiguation flush.
func (m *MemDepPredictor) RecordViolation(pc uint32) {
	i := m.idx(pc)
	if m.table[i] < 3 {
		m.table[i] = 3
	}
}

// RecordSuccess decays conservatism when a predicted-wait load turns out
// independent (it committed without forwarding from a store).
func (m *MemDepPredictor) RecordSuccess(pc uint32) {
	i := m.idx(pc)
	if m.table[i] > 0 {
		m.table[i]--
	}
}
