package uarch

// LSQ models the load and store queues: allocation at dispatch in program
// order, store-to-load forwarding, memory disambiguation with violation
// detection, and squash on recovery (paper §V-A: "a load-store queue
// (LSQ) for memory disambiguation").
//
// Both queues are preallocated rings of entries: Allocate reuses a slot
// instead of heap-allocating, and entry pointers stay valid while the
// entry is resident (slots never move; they are recycled only after
// Retire or SquashYounger drops them). Entries are Seq-ordered by
// construction — dispatch allocates in program order and squash discards
// a tail — which the scan helpers exploit.
//
//lint:hotpath
type LSQ struct {
	loads  lsqRing
	stores lsqRing
}

// LSQEntry tracks one in-flight memory operation.
//
//lint:hotpath
type LSQEntry struct {
	U         *UOp
	Addr      uint32
	Size      uint8
	AddrReady bool
	Data      uint32
	DataReady bool
	Executed  bool // loads: value obtained
	// FwdSeq is, for a load, the Seq of the store that forwarded its
	// value (LookupLoad sets it); 0 means the value came from memory.
	FwdSeq uint64
}

// lsqRing is a fixed-capacity circular buffer of LSQEntry slots. The
// backing array is sized to the configured queue capacity up front, so
// steady-state allocation and retirement touch no allocator.
type lsqRing struct {
	buf  []LSQEntry
	head int
	n    int
	cap  int
}

func newLSQRing(capacity int) lsqRing {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return lsqRing{buf: make([]LSQEntry, c), cap: capacity}
}

func (r *lsqRing) at(i int) *LSQEntry { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *lsqRing) push(u *UOp) *LSQEntry {
	e := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	*e = LSQEntry{U: u}
	r.n++
	return e
}

// NewLSQ builds the queues.
func NewLSQ(lqCap, sqCap int) *LSQ {
	return &LSQ{loads: newLSQRing(lqCap), stores: newLSQRing(sqCap)}
}

// CanAllocate reports whether a µop of the given kind fits.
func (q *LSQ) CanAllocate(isLoad bool) bool {
	if isLoad {
		return q.loads.n < q.loads.cap
	}
	return q.stores.n < q.stores.cap
}

// Allocate inserts a µop at dispatch (program order) and returns its
// entry. The entry pointer is valid until the µop retires or is
// squashed.
func (q *LSQ) Allocate(u *UOp) *LSQEntry {
	if u.IsLoad {
		return q.loads.push(u)
	}
	return q.stores.push(u)
}

// Occupancy returns current load/store queue occupancy.
func (q *LSQ) Occupancy() (int, int) { return q.loads.n, q.stores.n }

func overlap(a1 uint32, s1 uint8, a2 uint32, s2 uint8) bool {
	return a1 < a2+uint32(s2) && a2 < a1+uint32(s1)
}

// LoadResult describes the disambiguation outcome for a load.
type LoadResult int

const (
	// LoadFromMemory: no older conflicting store; read memory.
	LoadFromMemory LoadResult = iota
	// LoadForwarded: value fully supplied by an older store.
	LoadForwarded
	// LoadMustWait: an older store's address or data is unknown, or the
	// overlap is partial; retry later.
	LoadMustWait
)

// LookupLoad checks older stores for the load entry. On LoadForwarded the
// forwarded value (already size-extracted, unextended) is returned and
// the supplying store's Seq is recorded in le.FwdSeq. unknownOK selects
// speculation: when true, unknown older store addresses are ignored (the
// memory-dependence predictor said "speculate").
func (q *LSQ) LookupLoad(le *LSQEntry, unknownOK bool) (LoadResult, uint32) {
	var match *LSQEntry
	for i := 0; i < q.stores.n; i++ {
		se := q.stores.at(i)
		if se.U.Seq > le.U.Seq {
			break
		}
		if !se.AddrReady {
			if !unknownOK {
				return LoadMustWait, 0
			}
			continue
		}
		if overlap(se.Addr, se.Size, le.Addr, le.Size) {
			match = se // youngest older overlapping store wins
		}
	}
	if match == nil {
		return LoadFromMemory, 0
	}
	if !match.DataReady {
		return LoadMustWait, 0
	}
	// Forward only on containment; partial overlap waits for commit.
	if match.Addr <= le.Addr && match.Addr+uint32(match.Size) >= le.Addr+uint32(le.Size) {
		shift := (le.Addr - match.Addr) * 8
		mask := uint32(0xFFFFFFFF)
		if le.Size < 4 {
			mask = 1<<(8*uint32(le.Size)) - 1
		}
		le.FwdSeq = match.U.Seq
		return LoadForwarded, (match.Data >> shift) & mask
	}
	return LoadMustWait, 0
}

// OldestViolation returns the oldest executed younger load that overlaps
// a store whose address just became known — a memory-dependence violation
// requiring a flush — or nil if there is none. A load's value predates
// the resolving store only if it came from memory or was forwarded by a
// store older than this one; a load fed by this store or by a younger
// one (which fully contains the load, or it would not have forwarded)
// already holds the right bytes and is not flagged. The load queue is
// Seq-ordered, so the first match in a head-to-tail scan is the oldest;
// no slice is built.
func (q *LSQ) OldestViolation(se *LSQEntry) *LSQEntry {
	for i := 0; i < q.loads.n; i++ {
		le := q.loads.at(i)
		if le.U.Seq > se.U.Seq && le.Executed && le.FwdSeq < se.U.Seq &&
			overlap(se.Addr, se.Size, le.Addr, le.Size) {
			return le
		}
	}
	return nil
}

// SquashYounger drops entries with Seq > seq (recovery). Both queues are
// Seq-ordered, so this is a tail truncation.
func (q *LSQ) SquashYounger(seq uint64) {
	q.loads.truncateYounger(seq)
	q.stores.truncateYounger(seq)
}

func (r *lsqRing) truncateYounger(seq uint64) {
	for r.n > 0 && r.at(r.n-1).U.Seq > seq {
		r.n--
	}
}

// Retire removes the µop's entry from the head of its queue.
func (q *LSQ) Retire(u *UOp) {
	r := &q.stores
	if u.IsLoad {
		r = &q.loads
	}
	if r.n > 0 && r.at(0).U == u {
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.n--
	}
}

// OlderStoresResolved reports whether all stores older than seq have
// known addresses (used by conservative loads).
func (q *LSQ) OlderStoresResolved(seq uint64) bool {
	for i := 0; i < q.stores.n; i++ {
		se := q.stores.at(i)
		if se.U.Seq >= seq {
			break
		}
		if !se.AddrReady {
			return false
		}
	}
	return true
}
