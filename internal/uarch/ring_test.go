package uarch

import "testing"

// ringOp is one step of a table-driven ring scenario.
type ringOp struct {
	op   string // "pushBack", "pushBackRef", "pushFront", "popFront", "dropFront", "truncate", "clear"
	v    int    // value pushed, expected pop/drop result, or truncate length
	want []int  // expected head-to-tail contents after the op
}

func checkRing(t *testing.T, r *Ring[int], step int, want []int) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("step %d: Len=%d, want %d", step, r.Len(), len(want))
	}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("step %d: At(%d)=%d, want %d", step, i, got, w)
		}
		if got := *r.AtRef(i); got != w {
			t.Fatalf("step %d: *AtRef(%d)=%d, want %d", step, i, got, w)
		}
	}
	if len(want) > 0 && r.Front() != want[0] {
		t.Fatalf("step %d: Front()=%d, want %d", step, r.Front(), want[0])
	}
	if len(want) > 0 && *r.FrontRef() != want[0] {
		t.Fatalf("step %d: *FrontRef()=%d, want %d", step, *r.FrontRef(), want[0])
	}
}

// TestRingScenarios drives the ring through the access patterns the
// cores rely on: FIFO flow with head wraparound (fetch queue), PushFront
// after PopFront (the recovery walk returning physicals to the free
// list in reverse), truncation (ROB squash), and clearing.
func TestRingScenarios(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		ops  []ringOp
	}{
		{
			name: "fifo wraparound",
			cap:  4, // rounds up to 8; 12 pushes with interleaved pops wrap the head
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "popFront", v: 1, want: []int{2}},
				{op: "pushBack", v: 3, want: []int{2, 3}},
				{op: "pushBack", v: 4, want: []int{2, 3, 4}},
				{op: "pushBack", v: 5, want: []int{2, 3, 4, 5}},
				{op: "pushBack", v: 6, want: []int{2, 3, 4, 5, 6}},
				{op: "pushBack", v: 7, want: []int{2, 3, 4, 5, 6, 7}},
				{op: "pushBack", v: 8, want: []int{2, 3, 4, 5, 6, 7, 8}},
				{op: "popFront", v: 2, want: []int{3, 4, 5, 6, 7, 8}},
				{op: "popFront", v: 3, want: []int{4, 5, 6, 7, 8}},
				{op: "pushBack", v: 9, want: []int{4, 5, 6, 7, 8, 9}},
				{op: "pushBack", v: 10, want: []int{4, 5, 6, 7, 8, 9, 10}},
				{op: "pushBack", v: 11, want: []int{4, 5, 6, 7, 8, 9, 10, 11}},
				{op: "popFront", v: 4, want: []int{5, 6, 7, 8, 9, 10, 11}},
			},
		},
		{
			name: "by-reference fifo wraparound",
			cap:  4, // rounds up to 8, like the fetch queue's power-of-two ring
			ops: []ringOp{
				{op: "pushBackRef", v: 1, want: []int{1}},
				{op: "pushBackRef", v: 2, want: []int{1, 2}},
				{op: "pushBackRef", v: 3, want: []int{1, 2, 3}},
				{op: "dropFront", v: 1, want: []int{2, 3}},
				{op: "dropFront", v: 2, want: []int{3}},
				{op: "pushBackRef", v: 4, want: []int{3, 4}},
				{op: "pushBackRef", v: 5, want: []int{3, 4, 5}},
				{op: "pushBackRef", v: 6, want: []int{3, 4, 5, 6}},
				{op: "pushBackRef", v: 7, want: []int{3, 4, 5, 6, 7}},
				{op: "pushBackRef", v: 8, want: []int{3, 4, 5, 6, 7, 8}},
				{op: "dropFront", v: 3, want: []int{4, 5, 6, 7, 8}},
				{op: "dropFront", v: 4, want: []int{5, 6, 7, 8}},
				// The tail crosses the end of the backing array.
				{op: "pushBackRef", v: 9, want: []int{5, 6, 7, 8, 9}},
				{op: "pushBack", v: 10, want: []int{5, 6, 7, 8, 9, 10}},
				{op: "pushBackRef", v: 11, want: []int{5, 6, 7, 8, 9, 10, 11}},
				{op: "popFront", v: 5, want: []int{6, 7, 8, 9, 10, 11}},
				{op: "dropFront", v: 6, want: []int{7, 8, 9, 10, 11}},
				{op: "clear", want: []int{}},
				{op: "pushBackRef", v: 12, want: []int{12}},
			},
		},
		{
			name: "pushFront reverses like the recovery walk",
			cap:  8,
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "popFront", v: 1, want: []int{2}},
				{op: "popFront", v: 2, want: []int{}},
				// A walk frees the youngest first; PushFront restores the
				// original allocation order at the head.
				{op: "pushFront", v: 2, want: []int{2}},
				{op: "pushFront", v: 1, want: []int{1, 2}},
				{op: "popFront", v: 1, want: []int{2}},
			},
		},
		{
			name: "pushFront wraps below index zero",
			cap:  8,
			ops: []ringOp{
				// head starts at 0; PushFront must wrap to the top slot.
				{op: "pushFront", v: 9, want: []int{9}},
				{op: "pushFront", v: 8, want: []int{8, 9}},
				{op: "pushBack", v: 10, want: []int{8, 9, 10}},
				{op: "popFront", v: 8, want: []int{9, 10}},
			},
		},
		{
			name: "truncate drops the tail",
			cap:  8,
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "pushBack", v: 3, want: []int{1, 2, 3}},
				{op: "truncate", v: 1, want: []int{1}},
				{op: "pushBack", v: 4, want: []int{1, 4}},
				{op: "truncate", v: 0, want: []int{}},
				{op: "pushBack", v: 5, want: []int{5}},
			},
		},
		{
			name: "clear then reuse",
			cap:  8,
			ops: []ringOp{
				{op: "pushBack", v: 1, want: []int{1}},
				{op: "pushBack", v: 2, want: []int{1, 2}},
				{op: "clear", want: []int{}},
				{op: "pushBack", v: 3, want: []int{3}},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.cap)
			for i, op := range tc.ops {
				switch op.op {
				case "pushBack":
					r.PushBack(op.v)
				case "pushBackRef":
					*r.PushBackRef() = op.v
				case "dropFront":
					if got := *r.FrontRef(); got != op.v {
						t.Fatalf("step %d: *FrontRef=%d before DropFront, want %d", i, got, op.v)
					}
					r.DropFront()
				case "pushFront":
					r.PushFront(op.v)
				case "popFront":
					if got := r.PopFront(); got != op.v {
						t.Fatalf("step %d: PopFront=%d, want %d", i, got, op.v)
					}
				case "truncate":
					r.Truncate(op.v)
				case "clear":
					r.Clear()
				}
				checkRing(t, r, i, op.want)
			}
		})
	}
}

// TestRingGrowthPreservesOrder overflows a wrapped ring and checks the
// relocation kept head-to-tail order (the only allocating path; the
// cores pre-size rings so it never runs after warmup).
func TestRingGrowthPreservesOrder(t *testing.T) {
	r := NewRing[int](8)
	// Wrap the head first so growth must unwrap a split occupancy.
	for i := 0; i < 6; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 6; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("warmup pop %d: got %d", i, got)
		}
	}
	for i := 0; i < 20; i++ { // overflows capacity 8 mid-stream
		r.PushBack(100 + i)
	}
	if r.Cap() < 20 {
		t.Fatalf("Cap=%d after 20 pushes", r.Cap())
	}
	for i := 0; i < 20; i++ {
		if got := r.PopFront(); got != 100+i {
			t.Fatalf("pop %d: got %d, want %d", i, got, 100+i)
		}
	}
}

// TestRingRefGrowthPreservesOrder is TestRingGrowthPreservesOrder for
// PushBackRef: a push past capacity relocates the wrapped occupancy and
// returns a slot in the new backing array.
func TestRingRefGrowthPreservesOrder(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 5; i++ {
		*r.PushBackRef() = i
		r.DropFront()
	}
	for i := 0; i < 20; i++ { // overflows capacity 8 mid-stream
		p := r.PushBackRef()
		*p = 100 + i
		if got := *r.AtRef(r.Len() - 1); got != 100+i {
			t.Fatalf("push %d: tail reads %d through AtRef", i, got)
		}
	}
	if r.Cap() < 20 {
		t.Fatalf("Cap=%d after 20 pushes", r.Cap())
	}
	for i := 0; i < 20; i++ {
		if got := *r.FrontRef(); got != 100+i {
			t.Fatalf("drop %d: head %d, want %d", i, got, 100+i)
		}
		r.DropFront()
	}
}

// TestRingRefSlots pins the by-reference contract the fetch queue builds
// on: writes through AtRef are the element, a dropped head's slot keeps
// its contents until a later push reuses it, and PushBackRef hands back
// that stale slot unchanged, so the caller must write every field.
func TestRingRefSlots(t *testing.T) {
	type wide struct{ a, b int }
	r := NewRing[wide](8)
	for i := 0; i < 8; i++ {
		*r.PushBackRef() = wide{i, 10 + i}
	}
	r.AtRef(3).b = 99
	if got := r.At(3); got != (wide{3, 99}) {
		t.Fatalf("At(3)=%v after writing through AtRef", got)
	}
	head := r.FrontRef()
	r.DropFront()
	if *head != (wide{0, 10}) {
		t.Fatalf("dropped head slot changed before any push: %v", *head)
	}
	// The ring has one free slot, the dropped head's: the next push
	// wraps onto it and sees the stale element.
	p := r.PushBackRef()
	if p != head {
		t.Fatal("PushBackRef on a full-but-one ring did not reuse the dropped head slot")
	}
	if *p != (wide{0, 10}) {
		t.Fatalf("PushBackRef slot %v, want the stale element {0 10}", *p)
	}
	p.a = 8 // a partial write leaves the stale b behind
	if got := r.At(r.Len() - 1); got != (wide{8, 10}) {
		t.Fatalf("tail %v, want {8 10}", got)
	}
}

// TestRingSteadyStateDoesNotAllocate pins the ring's core contract: once
// occupancy stays at or below the high-water mark, push/pop traffic
// allocates nothing.
func TestRingSteadyStateDoesNotAllocate(t *testing.T) {
	r := NewRing[int](16)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			r.PushBack(i)
		}
		for i := 0; i < 16; i++ {
			r.PopFront()
		}
		for i := 0; i < 16; i++ {
			*r.PushBackRef() = i
		}
		for i := 0; i < 16; i++ {
			r.DropFront()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ring traffic allocates %.1f per run, want 0", allocs)
	}
}

// TestRingPanics pins the guard rails the cores rely on (every pop is
// occupancy-checked, so a panic here means a core bug, not input).
func TestRingPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRing[int](4)
	expectPanic("PopFront empty", func() { r.PopFront() })
	expectPanic("At out of range", func() { r.At(0) })
	expectPanic("DropFront empty", func() { r.DropFront() })
	expectPanic("FrontRef empty", func() { r.FrontRef() })
	expectPanic("AtRef negative", func() { r.AtRef(-1) })
	expectPanic("Truncate negative", func() { r.Truncate(-1) })
	r.PushBack(1)
	expectPanic("Truncate past len", func() { r.Truncate(2) })
	expectPanic("At past len", func() { r.At(1) })
	expectPanic("AtRef past len", func() { r.AtRef(1) })
	r.DropFront()
	expectPanic("DropFront after last", func() { r.DropFront() })
}
