package sim

import "container/heap"

// wheelQueue is a two-level timer structure: a near-future wheel of
// wheelSlots doubly-linked buckets covering [now, now+wheelSlots), and a
// far-future overflow heap for everything beyond the window. Most
// simulation events (block boundaries, Δ-bounded network delays) land a
// few hundred ticks out, so scheduling, firing, and canceling them is
// O(1) list surgery; only long timelock ladders and GST horizons pay the
// heap's O(log n).
//
// Invariants, maintained by every operation:
//
//   - wheel events have at ∈ [now, horizon) where horizon = now+wheelSlots
//     after the latest advance; far-heap events have at ≥ horizon. The
//     window is exactly wheelSlots wide, so each slot holds at most one
//     distinct timestamp — whichever live events share at % wheelSlots.
//   - slot lists are seq-ascending: direct schedules append in issue
//     order, and heap→wheel migration drains the heap in (at, seq) order
//     into slots that provably hold no older event for that timestamp
//     (such an event's time would have to equal the migrated one's, yet
//     lie below the pre-migration horizon — a contradiction).
//   - cursor ≤ the earliest live wheel timestamp, so the peek scan never
//     walks past a live event.
//
// Together these give the same total (at, seq) execution order as a
// single binary heap, bit for bit — the twin-equivalence test in
// wheel_test.go drives the wheel and the heap oracle (heap_test.go) with
// one randomized script and asserts identical sequences.
const (
	wheelBits  = 10
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
)

type wheelSlot struct {
	head, tail *event
}

type wheelQueue struct {
	slots   [wheelSlots]wheelSlot
	wheelN  int  // live events currently on the wheel
	live    int  // live events total (wheel + far heap)
	cursor  Time // lower bound for the earliest wheel timestamp
	horizon Time // exclusive wheel upper bound; far heap holds at ≥ horizon
	far     farHeap
}

func newWheelQueue() *wheelQueue {
	return &wheelQueue{horizon: wheelSlots}
}

func (q *wheelQueue) schedule(e *event) {
	q.live++
	if e.at < q.horizon {
		q.pushSlot(e)
		return
	}
	e.loc = locFar
	heap.Push(&q.far, e)
}

// pushSlot appends e to the tail of its slot, keeping the list
// seq-ascending for its timestamp.
func (q *wheelQueue) pushSlot(e *event) {
	e.loc = locWheel
	s := &q.slots[int(uint64(e.at))&wheelMask]
	e.prev = s.tail
	e.next = nil
	if s.tail != nil {
		s.tail.next = e
	} else {
		s.head = e
	}
	s.tail = e
	q.wheelN++
	if e.at < q.cursor {
		q.cursor = e.at
	}
}

func (q *wheelQueue) unlinkSlot(e *event) {
	s := &q.slots[int(uint64(e.at))&wheelMask]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	q.wheelN--
}

func (q *wheelQueue) remove(e *event) {
	switch e.loc {
	case locWheel:
		q.unlinkSlot(e)
	case locFar:
		heap.Remove(&q.far, e.hIdx)
		q.far.maybeShrink()
	default:
		return
	}
	e.loc = locNone
	e.fn = nil
	q.live--
}

func (q *wheelQueue) peek() *event {
	if q.live == 0 {
		return nil
	}
	if q.wheelN == 0 {
		return q.far[0]
	}
	for {
		if s := &q.slots[int(uint64(q.cursor))&wheelMask]; s.head != nil {
			return s.head
		}
		q.cursor++
	}
}

func (q *wheelQueue) pop() *event {
	e := q.peek()
	if e == nil {
		return nil
	}
	if e.loc == locWheel {
		q.unlinkSlot(e)
	} else {
		heap.Pop(&q.far)
		q.far.maybeShrink()
	}
	e.loc = locNone
	q.live--
	return e
}

// advance moves the window forward to [now, now+wheelSlots), migrating
// far-heap events that have entered it onto the wheel. The scheduler
// calls it on every clock movement (each Step and each RunUntil clamp),
// so the window invariants hold before any schedule or peek.
func (q *wheelQueue) advance(now Time) {
	if q.cursor < now {
		q.cursor = now
	}
	h := now + wheelSlots
	if h == q.horizon {
		return
	}
	for len(q.far) > 0 && q.far[0].at < h {
		e := heap.Pop(&q.far).(*event)
		q.pushSlot(e) // stays live; it only changes structure
	}
	q.horizon = h
	q.far.maybeShrink()
}

func (q *wheelQueue) len() int { return q.live }
