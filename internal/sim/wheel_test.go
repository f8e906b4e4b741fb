package sim

import (
	"fmt"
	"testing"
)

// backends lists the two scheduler implementations; most regression tests
// below run against both so the heap oracle and the wheel stay in lockstep.
var backends = []struct {
	name string
	mk   func() *Scheduler
}{
	{"wheel", NewScheduler},
	{"heap", newHeapScheduler},
}

func TestPendingAfterCancelIsZero(t *testing.T) {
	// Regression: Pending() used to count canceled (dead) events because
	// Cancel only set a tombstone. Cancel must truly unlink.
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.mk()
			const n = 1000
			cancels := make([]Cancel, 0, n)
			for i := 0; i < n; i++ {
				// Half near-future (wheel slots), half beyond the window
				// (overflow heap) so both cancel paths are exercised.
				at := Time(i % 500)
				if i%2 == 1 {
					at = Time(wheelSlots + 10*i)
				}
				cancels = append(cancels, s.At(at, func() { t.Error("canceled event ran") }))
			}
			if s.Pending() != n {
				t.Fatalf("Pending() = %d before cancels, want %d", s.Pending(), n)
			}
			for _, c := range cancels {
				c()
			}
			if s.Pending() != 0 {
				t.Fatalf("Pending() = %d after canceling all, want 0", s.Pending())
			}
			s.Run()
			if s.Steps() != 0 {
				t.Fatalf("Steps() = %d after canceling all, want 0", s.Steps())
			}
		})
	}
}

func TestDoubleCancelIsNoop(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.mk()
			ran := 0
			c1 := s.At(10, func() { ran++ })
			s.At(20, func() { ran++ })
			c1()
			c1() // second cancel of the same event must not unlink a neighbor
			if s.Pending() != 1 {
				t.Fatalf("Pending() = %d, want 1", s.Pending())
			}
			s.Run()
			if ran != 1 {
				t.Fatalf("ran = %d, want 1", ran)
			}
		})
	}
}

// TestAfterAllocatesOnlyTheEvent pins what scheduling costs before any
// event has run: After with a prebuilt fn allocates the event and nothing
// else, while At still hands back a Cancel that unlinks the event.
func TestAfterAllocatesOnlyTheEvent(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.mk()
			ran := 0
			fn := func() { ran++ }
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, func() { s.After(3, fn) }); allocs != 1 {
				t.Fatalf("After allocates %v times per event, want 1", allocs)
			}
			cancel := s.At(2, func() { t.Error("canceled event ran") })
			cancel()
			if got := s.Pending(); got != runs+1 {
				t.Fatalf("Pending() = %d after canceling, want %d", got, runs+1)
			}
			s.Run()
			if ran != runs+1 {
				t.Fatalf("%d events ran, want %d", ran, runs+1)
			}
		})
	}
}

// TestAfterReusesExecutedEvents pins the steady state: once an After
// event has run, its node serves the next After, so scheduling and
// firing with a prebuilt fn allocates nothing.
func TestAfterReusesExecutedEvents(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.mk()
			ran := 0
			fn := func() { ran++ }
			s.After(3, fn)
			s.Step()
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, func() { s.After(3, fn); s.Step() }); allocs != 0 {
				t.Fatalf("After + Step allocates %v times per event in steady state, want 0", allocs)
			}
			if ran != runs+2 { // AllocsPerRun adds one warm-up run
				t.Fatalf("%d events ran, want %d", ran, runs+2)
			}
		})
	}
}

// TestStaleCancelSparesReusedEvents: a Cancel kept from an At event that
// has already run must stay a no-op, whatever After events have since
// been scheduled (At nodes are never reused, so it cannot reach one).
func TestStaleCancelSparesReusedEvents(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.mk()
			s.After(1, func() {})
			cancel := s.At(2, func() {})
			s.Run()
			ran := 0
			for i := 0; i < 3; i++ {
				s.After(Time(i), func() { ran++ })
			}
			cancel()
			if s.Pending() != 3 {
				t.Fatalf("Pending() = %d after a stale cancel, want 3", s.Pending())
			}
			s.Run()
			if ran != 3 {
				t.Fatalf("%d of 3 After events ran after a stale cancel", ran)
			}
		})
	}
}

func TestChurnKeepsQueueBounded(t *testing.T) {
	// A schedule/cancel churn loop must not grow the queue: canceled
	// events are unlinked immediately, and the far heap's backing array
	// compacts when live events drop below a quarter of its capacity.
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.mk()
			for i := 0; i < 100000; i++ {
				c := s.At(s.Now()+Time(wheelSlots+1+i%997), func() {})
				c()
			}
			if s.Pending() != 0 {
				t.Fatalf("Pending() = %d after churn, want 0", s.Pending())
			}
			var heapCap int
			switch q := s.q.(type) {
			case *wheelQueue:
				heapCap = cap(q.far)
			case *heapQueue:
				heapCap = cap(q.h)
			}
			if heapCap > 64 {
				t.Fatalf("far-heap capacity = %d after churn, want ≤ 64", heapCap)
			}
		})
	}
}

func TestBurstThenCancelShrinksBackingArray(t *testing.T) {
	// A large burst followed by mass cancellation must release the
	// backing array instead of pinning peak memory for the run.
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.mk()
			const n = 100000
			cancels := make([]Cancel, 0, n)
			for i := 0; i < n; i++ {
				cancels = append(cancels, s.At(Time(wheelSlots+i), func() {}))
			}
			for _, c := range cancels[:n-100] {
				c()
			}
			var heapCap int
			switch q := s.q.(type) {
			case *wheelQueue:
				heapCap = cap(q.far)
			case *heapQueue:
				heapCap = cap(q.h)
			}
			if heapCap > n/4 {
				t.Fatalf("far-heap capacity = %d after mass cancel, want ≤ %d", heapCap, n/4)
			}
			ran := 0
			s.At(Time(wheelSlots+n+1), func() { ran++ })
			s.Run()
			if ran != 1 {
				t.Fatal("survivor event did not run after compaction")
			}
		})
	}
}

func TestWheelFarFutureMigration(t *testing.T) {
	// Events far beyond the wheel window must migrate onto the wheel as
	// the clock advances and still fire in exact (at, seq) order.
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{5, wheelSlots + 5, 3 * wheelSlots, 10 * wheelSlots, wheelSlots - 1} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	want := []Time{5, wheelSlots - 1, wheelSlots + 5, 3 * wheelSlots, 10 * wheelSlots}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order = %v, want %v", got, want)
	}
	if s.Now() != 10*wheelSlots {
		t.Fatalf("Now() = %d, want %d", s.Now(), 10*wheelSlots)
	}
}

func TestWheelFIFOAcrossMigration(t *testing.T) {
	// Two events at the same far-future instant keep their FIFO order
	// after migrating from the overflow heap to a wheel slot, including
	// against an event scheduled directly onto the slot after migration.
	s := NewScheduler()
	const at = 5 * wheelSlots
	var order []int
	s.At(at, func() { order = append(order, 0) })
	s.At(at, func() { order = append(order, 1) })
	s.At(at-wheelSlots/2, func() { // runs after migration, schedules a third
		s.At(at, func() { order = append(order, 2) })
	})
	s.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}

// twinOp is one instruction of a randomized scheduler script.
type twinOp struct {
	kind   int  // 0 = schedule, 1 = cancel, 2 = RunUntil, 3 = Step
	delay  Time // schedule: offset from now; RunUntil: offset from now
	cancel int  // cancel: index into the handles issued so far
	nest   bool // schedule: the event schedules a follow-up when it runs
	after  bool // schedule: through After (no handle; its node is reused)
}

// runTwinScript drives one scheduler through a script and returns the
// executed event trace as (event id, firing time) pairs. Cancels may hit
// At events that have already run while After reuses executed nodes.
func runTwinScript(s *Scheduler, script []twinOp) []string {
	var trace []string
	var handles []Cancel
	nextID := 0
	var schedule func(delay Time, nest, after bool)
	schedule = func(delay Time, nest, after bool) {
		id := nextID
		nextID++
		fn := func() {
			trace = append(trace, fmt.Sprintf("%d@%d", id, s.Now()))
			if nest {
				schedule(Time(id%211), false, !after)
			}
		}
		if after {
			s.After(delay, fn)
			return
		}
		handles = append(handles, s.At(s.Now()+delay, fn))
	}
	for _, op := range script {
		switch op.kind {
		case 0:
			schedule(op.delay, op.nest, op.after)
		case 1:
			if len(handles) > 0 {
				handles[op.cancel%len(handles)]()
			}
		case 2:
			s.RunUntil(s.Now() + op.delay)
		case 3:
			s.Step()
		}
	}
	s.Run()
	return trace
}

func TestSchedulerTwinEquivalence(t *testing.T) {
	// The heap and time-wheel backends must execute an identical
	// randomized schedule/cancel/RunUntil script in the identical
	// (time, seq) order. Delays span slot reuse (multiples of the wheel
	// size) and the far-future heap, cancels hit both structures, and
	// half the events go through After, whose nodes are reused.
	for seed := uint64(1); seed <= 8; seed++ {
		rng := NewRNG(seed)
		script := make([]twinOp, 4000)
		for i := range script {
			op := twinOp{}
			switch k := rng.Intn(10); {
			case k < 6:
				op.kind = 0
				switch rng.Intn(4) {
				case 0:
					op.delay = Time(rng.Intn(64)) // same-slot collisions
				case 1:
					op.delay = Time(rng.Intn(wheelSlots))
				case 2:
					op.delay = Time(wheelSlots * (1 + rng.Intn(4)))
				default:
					op.delay = Time(rng.Intn(20 * wheelSlots))
				}
				op.nest = rng.Bool(0.2)
				op.after = rng.Bool(0.5)
			case k < 8:
				op.kind = 1
				op.cancel = rng.Intn(1 << 20)
			case k < 9:
				op.kind = 2
				op.delay = Time(rng.Intn(2 * wheelSlots))
			default:
				op.kind = 3
			}
			script[i] = op
		}

		wheelTrace := runTwinScript(NewScheduler(), script)
		heapTrace := runTwinScript(newHeapScheduler(), script)
		if len(wheelTrace) != len(heapTrace) {
			t.Fatalf("seed %d: trace lengths differ: wheel %d, heap %d",
				seed, len(wheelTrace), len(heapTrace))
		}
		for i := range wheelTrace {
			if wheelTrace[i] != heapTrace[i] {
				t.Fatalf("seed %d: traces diverge at step %d: wheel %s, heap %s",
					seed, i, wheelTrace[i], heapTrace[i])
			}
		}
	}
}
