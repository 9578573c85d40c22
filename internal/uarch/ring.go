package uarch

// Ring is a preallocated circular buffer used for the simulation kernel's
// FIFO-ish pipeline structures (ROB, fetch queue, free list). Unlike an
// append-and-reslice slice, the steady-state operations never allocate:
// PushBack/PopFront move head and length over a fixed power-of-two backing
// array, and element slots are stable while an element is resident (the
// buffer only grows when the occupancy exceeds every previous high-water
// mark, which the cores' structural size checks prevent after warmup).
//
//lint:hotpath
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// NewRing builds a ring with at least the given capacity.
func NewRing[T any](capacity int) *Ring[T] {
	r := &Ring[T]{}
	r.grow(capacity)
	return r
}

func (r *Ring[T]) grow(minCap int) {
	c := 8
	for c < minCap {
		c <<= 1
	}
	buf := make([]T, c) //lint:alloc amortized ring growth; rings are pre-sized and grow only past the high-water mark
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// Len returns the number of elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current backing capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// PushBack appends v at the tail.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n*2 + 1)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront prepends v at the head.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n*2 + 1)
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// PopFront removes and returns the head element. It panics on an empty
// ring (the cores guard every pop with an occupancy check).
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("uarch: PopFront on empty ring")
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// At returns the element i positions from the head (0 = head).
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("uarch: ring index out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Front returns the head element without removing it.
func (r *Ring[T]) Front() T { return r.At(0) }

// The by-reference accessors below serve rings of wide elements (the
// fetch queue), where copying an element in or out costs more than the
// work done on it.

// PushBackRef appends a slot at the tail and returns a pointer to it.
// The slot keeps whatever element last occupied it: the caller must
// write every field.
func (r *Ring[T]) PushBackRef() *T {
	if r.n == len(r.buf) {
		r.grow(r.n*2 + 1)
	}
	p := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	return p
}

// AtRef returns a pointer to the element i positions from the head. The
// pointer stays valid while the element is resident and the ring does
// not grow; after DropFront or Truncate removes the element, its slot
// is only overwritten by a later push.
func (r *Ring[T]) AtRef(i int) *T {
	if i < 0 || i >= r.n {
		panic("uarch: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// FrontRef returns a pointer to the head element (see AtRef).
func (r *Ring[T]) FrontRef() *T { return r.AtRef(0) }

// DropFront removes the head element without copying it out. It panics
// on an empty ring.
func (r *Ring[T]) DropFront() {
	if r.n == 0 {
		panic("uarch: DropFront on empty ring")
	}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// Truncate drops elements from the tail until n remain.
func (r *Ring[T]) Truncate(n int) {
	if n < 0 || n > r.n {
		panic("uarch: ring truncate out of range")
	}
	r.n = n
}

// Clear removes all elements (slots are not zeroed; residents of a
// cleared ring must not own pooled resources).
func (r *Ring[T]) Clear() {
	r.head = 0
	r.n = 0
}
