package sim

import "container/heap"

// heapQueue is a single-binary-heap scheduler backend, the differential
// oracle for the time-wheel. It unlinks canceled events immediately
// (index-tracked heap.Remove) and compacts its backing array after
// bursts, so Pending() counts live events only and memory tracks the
// live set, as the wheel's does.
type heapQueue struct {
	h farHeap
}

func (q *heapQueue) schedule(e *event) {
	e.loc = locFar
	heap.Push(&q.h, e)
}

func (q *heapQueue) remove(e *event) {
	if e.loc != locFar {
		return
	}
	heap.Remove(&q.h, int(e.hIdx))
	e.loc = locNone
	e.call, e.arg = nil, nil
	q.h.maybeShrink()
}

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	e := heap.Pop(&q.h).(*event)
	e.loc = locNone
	q.h.maybeShrink()
	return e
}

func (q *heapQueue) advance(Time) {}

func (q *heapQueue) len() int { return len(q.h) }

// newHeapScheduler returns a scheduler backed by the binary heap.
// It executes the exact same (at, seq) order as the time-wheel scheduler
// NewScheduler returns, which the twin tests in wheel_test.go check.
func newHeapScheduler() *Scheduler {
	return &Scheduler{q: &heapQueue{}}
}
