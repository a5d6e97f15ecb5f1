package store

import "time"

// due is one dueHeap element: a payload keyed by (due time, sequence).
type due[T any] struct {
	at  time.Time
	seq uint64
	v   T
}

// less orders elements by (at, seq).
func (a *due[T]) less(b *due[T]) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.seq < b.seq
}

// dueHeap is a binary min-heap of payloads ordered by (due time,
// sequence). It is container/heap's algorithm on a typed slice, so a
// push or pop does not box the element into an interface value. Keys
// are unique in both users (pending deliveries and wheel
// registrations), so the pop order is fully determined by the keys.
type dueHeap[T any] []due[T]

// push adds x to the heap.
func (h *dueHeap[T]) push(x due[T]) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q[j].less(&q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes and returns the minimum element. The heap must not be
// empty.
func (h *dueHeap[T]) pop() due[T] {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if k := j + 1; k < n && q[k].less(&q[j]) {
			j = k
		}
		if !q[j].less(&q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	x := q[n]
	q[n] = due[T]{} // drop the popped payload's references
	*h = q[:n]
	return x
}

// reset empties the heap, keeping its backing array for reuse.
func (h *dueHeap[T]) reset() {
	clear(*h)
	*h = (*h)[:0]
}
