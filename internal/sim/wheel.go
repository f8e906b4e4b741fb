package sim

import "container/heap"

// wheelQueue is a two-level timer structure: a near-future wheel of
// wheelSlots (256) doubly-linked buckets covering [now, now+wheelSlots),
// and a far-future overflow heap for everything beyond the window. The
// window is sized to the traffic: measured over the benchmark's seed-7
// populations, 95.6–96.5 % of scheduled events land under 256 ticks out
// on isolated deals (notify delays, block boundaries; 73–77 % under 64),
// 0.9–1.3 % in [256, 1024) and 2.6–3.1 % at 1024 or beyond (timelock
// ladders, GST horizons); shared arenas put 98.2 % under 256. Those
// events are O(1) list surgery; the rest pay the heap's O(log n). Every
// isolated deal builds its own scheduler, so the window is also 2 KB of
// zeroed memory per deal.
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
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
)

type wheelQueue struct {
	// slots[i] heads the doubly-linked list of events at the timestamp
	// ≡ i mod wheelSlots; the head's prev is the tail, so a slot is one
	// pointer and the wheel 2 KB.
	slots   [wheelSlots]*event
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
	e.next = nil
	if head := &q.slots[int(uint64(e.at))&wheelMask]; *head == nil {
		e.prev = e
		*head = e
	} else {
		tail := (*head).prev
		tail.next, e.prev, (*head).prev = e, tail, e
	}
	q.wheelN++
	if e.at < q.cursor {
		q.cursor = e.at
	}
}

func (q *wheelQueue) unlinkSlot(e *event) {
	head := &q.slots[int(uint64(e.at))&wheelMask]
	switch {
	case e == *head:
		if e.next != nil {
			e.next.prev = e.prev // the tail
		}
		*head = e.next
	case e.next == nil: // the tail
		e.prev.next = nil
		(*head).prev = e.prev
	default:
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = nil, nil
	q.wheelN--
}

func (q *wheelQueue) remove(e *event) {
	switch e.loc {
	case locWheel:
		q.unlinkSlot(e)
	case locFar:
		heap.Remove(&q.far, int(e.hIdx))
		q.far.maybeShrink()
	default:
		return
	}
	e.loc = locNone
	e.call, e.arg = nil, nil
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
		if head := q.slots[int(uint64(q.cursor))&wheelMask]; head != nil {
			return head
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
