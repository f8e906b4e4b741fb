// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event scheduler, and a seeded random source.
//
// Every component of the reproduction (blockchains, parties, networks,
// consensus) runs on top of a single Scheduler, so entire multi-chain
// protocol executions are single-threaded, reproducible, and fast.
// Virtual time is measured in abstract ticks; the protocols only care
// about the synchrony bound Δ expressed in the same unit.
package sim

// Time is a point in virtual time, measured in ticks since simulation start.
type Time int64

// Duration is a span of virtual time in ticks.
type Duration = Time

// Where an event currently lives. Events move wheel ↔ heap as the clock
// advances; locNone marks executed or canceled events, making Cancel
// idempotent and safe after the event has run.
const (
	locNone = iota
	locWheel
	locFar
)

// event is a scheduled callback. It is an intrusive node: prev/next link
// it into a time-wheel slot, hIdx tracks its position in the far-future
// heap, so cancellation truly unlinks it from either structure in O(1)
// (wheel) or O(log n) (heap) instead of leaving a dead tombstone.
type event struct {
	at     Time
	seq    uint64 // FIFO tie-break for events at the same instant
	fn     func()
	loc    int8
	pooled bool   // scheduled by After: no Cancel reaches it, so Step recycles it
	prev   *event // wheel slot list links
	next   *event // also links the scheduler's free list
	hIdx   int    // far-future heap index
}

// eventQueue is the priority structure under a Scheduler. The time-wheel
// is the one production implementation; the tests run a binary-heap
// oracle (heap_test.go) through the same seam. Both order events by
// (at, seq) and hold live events only.
type eventQueue interface {
	schedule(e *event)
	remove(e *event)
	peek() *event
	pop() *event
	advance(now Time)
	len() int
}

// farHeap implements heap.Interface ordered by (at, seq), maintaining
// each event's hIdx so heap.Remove can unlink canceled events directly.
type farHeap []*event

func (q farHeap) Len() int { return len(q) }
func (q farHeap) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q farHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].hIdx = i
	q[j].hIdx = j
}
func (q *farHeap) Push(x any) {
	e := x.(*event)
	e.hIdx = len(*q)
	*q = append(*q, e)
}
func (q *farHeap) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	e.hIdx = -1
	return e
}

// maybeShrink re-slices the backing array once live events drop below a
// quarter of its capacity, so a burst (a million-deal spike) doesn't pin
// peak memory for the rest of the run.
func (q *farHeap) maybeShrink() {
	if cap(*q) >= 64 && len(*q) < cap(*q)/4 {
		ns := make(farHeap, len(*q))
		copy(ns, *q)
		*q = ns
	}
}

// Scheduler is a deterministic discrete-event scheduler. The zero value is
// not usable; create one with NewScheduler.
type Scheduler struct {
	now   Time
	seq   uint64
	q     eventQueue
	steps uint64
	free  *event // executed After nodes, linked through next
}

// NewScheduler returns a scheduler with the clock at zero and no events,
// backed by the hierarchical time-wheel.
func NewScheduler() *Scheduler {
	return &Scheduler{q: newWheelQueue()}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Pending returns the number of live events waiting to run. Canceled
// events are unlinked immediately and never counted.
func (s *Scheduler) Pending() int { return s.q.len() }

// Cancel is returned by At and cancels the event if it has not run.
// Canceling an executed or already-canceled event is a no-op.
type Cancel func()

// At schedules fn to run at time t. Scheduling in the past (t < Now) runs
// the event at the current time instead, preserving causal order.
func (s *Scheduler) At(t Time, fn func()) Cancel {
	// A fresh node: the Cancel may be kept, and called, long after the
	// event has run, so this node is never recycled.
	e := &event{}
	s.schedule(e, t, fn)
	return func() { s.q.remove(e) }
}

// After schedules fn to run d ticks from now (now, if d < 0). Unlike At
// it returns no Cancel, so nothing can reach the event once it has run:
// its node goes back to the scheduler's free list, and scheduling with a
// prebuilt fn allocates nothing in steady state.
func (s *Scheduler) After(d Duration, fn func()) {
	e := s.free
	if e != nil {
		s.free, e.next = e.next, nil
	} else {
		e = &event{pooled: true}
	}
	s.schedule(e, s.now+d, fn)
}

func (s *Scheduler) schedule(e *event, t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	s.q.schedule(e)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	e := s.q.pop()
	if e == nil {
		return false
	}
	s.now = e.at
	s.q.advance(s.now)
	s.steps++
	fn := e.fn
	if e.pooled {
		// Free before running, so whatever fn schedules can reuse it.
		e.fn, e.next, s.free = nil, s.free, e
	}
	fn()
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled exactly at t do run.
func (s *Scheduler) RunUntil(t Time) {
	for {
		e := s.q.peek()
		if e == nil || e.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
		s.q.advance(t)
	}
}
