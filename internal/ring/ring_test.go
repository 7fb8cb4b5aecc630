package ring

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the plain-slice reference a Ring must agree with: pushes
// append, the bound drops the oldest, DropFront reslices.
type model struct {
	items  []int
	bound  int // 0 = unbounded
	pushed uint64
}

func (m *model) push(v int) {
	m.pushed++
	m.items = append(m.items, v)
	if m.bound > 0 && len(m.items) > m.bound {
		m.items = m.items[1:]
	}
}

func (m *model) dropFront(k int) { m.items = m.items[min(max(k, 0), len(m.items)):] }

func check(t *testing.T, step int, r *Ring[int], m *model) {
	t.Helper()
	if r.Len() != len(m.items) {
		t.Fatalf("step %d: Len = %d, model %d", step, r.Len(), len(m.items))
	}
	if r.Pushed() != m.pushed || r.Evicted() != m.pushed-uint64(len(m.items)) {
		t.Fatalf("step %d: pushed/evicted = %d/%d, model %d/%d", step,
			r.Pushed(), r.Evicted(), m.pushed, m.pushed-uint64(len(m.items)))
	}
	for i, want := range m.items {
		if got := *r.At(i); got != want {
			t.Fatalf("step %d: At(%d) = %d, model %d", step, i, got, want)
		}
	}
	prefix := []int{-1, -2}
	if got := r.AppendTo(slices.Clone(prefix)); !slices.Equal(got, append(prefix, m.items...)) {
		t.Fatalf("step %d: AppendTo = %v, model %v", step, got, m.items)
	}
}

// TestRingMatchesSliceModel drives bounded and unbounded rings with a
// random mix of pushes and front drops and checks every observable
// after each step: the wrap at the bound, growth past the first buffer,
// the pushed/evicted counts, and At/AppendTo order.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, bound := range []int{0, 1, 3, 8, 100} {
		rng := rand.New(rand.NewSource(int64(bound) + 1))
		r := New[int](bound)
		m := &model{bound: bound}
		check(t, -1, &r, m)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 7:
				v := rng.Int()
				r.Push(v)
				m.push(v)
			case op < 9:
				k := rng.Intn(200) - 1 // includes k <= 0 and k > Len
				r.DropFront(k)
				m.dropFront(k)
			default:
				// A burst long enough to wrap the bound or grow the
				// unbounded buffer more than once.
				for i := 0; i < 150; i++ {
					r.Push(step*1000 + i)
					m.push(step*1000 + i)
				}
			}
			check(t, step, &r, m)
		}
	}
}

func TestRingBoundAllocatesUpFront(t *testing.T) {
	r := New[int](5)
	allocs := testing.AllocsPerRun(100, func() { r.Push(1) })
	if allocs != 0 {
		t.Errorf("bounded Push allocates %.1f/op, want 0", allocs)
	}
	var u Ring[int]
	for i := 0; i < minGrow; i++ {
		u.Push(i)
	}
	if got := cap(u.buf); got != minGrow {
		t.Errorf("unbounded ring holding %d items has cap %d, want %d", minGrow, got, minGrow)
	}
	u.Push(minGrow)
	if got := cap(u.buf); got != 2*minGrow {
		t.Errorf("unbounded ring grew to cap %d, want %d", got, 2*minGrow)
	}
}

func TestRingAtOutOfRangePanics(t *testing.T) {
	r := New[int](4)
	r.Push(1)
	for _, i := range []int{-1, 1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a 1-item ring did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
}
