// Package ring is the one FIFO buffer under the observability plane:
// the event timeline, the span tracer, the flight recorder's frames,
// the live hub's replay frames and the SLO window all keep their items
// in a Ring.
package ring

// minGrow is the first buffer size of an unbounded ring.
const minGrow = 64

// Ring is a FIFO queue over a circular buffer, oldest item first.
//
// A bounded ring (New with bound > 0) allocates its bound up front and,
// once full, evicts the oldest item on every Push. The zero value is
// unbounded: it starts at minGrow items and doubles whenever it fills,
// and its owner removes old items with DropFront.
//
// A Ring is not safe for concurrent use; owners guard it with their own
// lock.
type Ring[T any] struct {
	buf     []T
	head    int // index of the oldest item
	n       int // items held
	bounded bool
	pushed  uint64 // items ever pushed
}

// New returns a ring that holds at most bound items, or an unbounded
// ring when bound <= 0.
func New[T any](bound int) Ring[T] {
	if bound <= 0 {
		return Ring[T]{}
	}
	return Ring[T]{buf: make([]T, bound), bounded: true}
}

// index maps the i-th oldest item to its buffer slot.
func (r *Ring[T]) index(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

// Push appends v as the newest item. A full bounded ring evicts its
// oldest item; a full unbounded ring doubles its buffer.
func (r *Ring[T]) Push(v T) {
	r.pushed++
	if r.n == len(r.buf) {
		if r.bounded {
			r.buf[r.head] = v
			r.head = r.index(1)
			return
		}
		buf := make([]T, max(2*len(r.buf), minGrow))
		r.AppendTo(buf[:0])
		r.buf, r.head = buf, 0
	}
	r.buf[r.index(r.n)] = v
	r.n++
}

// DropFront removes the k oldest items (all of them when k >= Len).
func (r *Ring[T]) DropFront(k int) {
	k = min(k, r.n)
	if k <= 0 {
		return
	}
	r.head = r.index(k)
	r.n -= k
}

// Len returns how many items the ring holds.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th oldest item, 0 <= i < Len, in place: the pointer
// is valid until the next Push.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("ring: index out of range")
	}
	return &r.buf[r.index(i)]
}

// AppendTo appends the held items to dst, oldest first.
func (r *Ring[T]) AppendTo(dst []T) []T {
	if r.head+r.n <= len(r.buf) {
		return append(dst, r.buf[r.head:r.head+r.n]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.n-(len(r.buf)-r.head)]...)
}

// Pushed returns how many items were ever pushed.
func (r *Ring[T]) Pushed() uint64 { return r.pushed }

// Evicted returns how many pushed items the ring no longer holds,
// whether the bound evicted them or DropFront removed them.
func (r *Ring[T]) Evicted() uint64 { return r.pushed - uint64(r.n) }
