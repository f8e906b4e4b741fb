package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestSchedulerRunsEventsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break)", i, v, i)
		}
	}
}

func TestSchedulerAfter(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.At(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	s.Run()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler()
	var at Time = -1
	s.At(100, func() {
		s.At(10, func() { at = s.Now() }) // in the past
	})
	s.Run()
	if at != 100 {
		t.Fatalf("past event ran at %d, want 100", at)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	cancel := s.At(10, func() { ran = true })
	cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerCancelAfterRunIsNoop(t *testing.T) {
	s := NewScheduler()
	n := 0
	var cancel Cancel
	cancel = s.At(10, func() { n++ })
	s.Run()
	cancel() // must not panic or corrupt
	s.Run()
	if n != 1 {
		t.Fatalf("event ran %d times, want 1", n)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := NewScheduler()
	var ran []Time
	s.At(10, func() { ran = append(ran, 10) })
	s.At(20, func() { ran = append(ran, 20) })
	s.At(30, func() { ran = append(ran, 30) })
	s.RunUntil(20)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want events at 10 and 20 only", ran)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", s.Now())
	}
	s.Run()
	if len(ran) != 3 {
		t.Fatalf("remaining event did not run: %v", ran)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(500)
	if s.Now() != 500 {
		t.Fatalf("Now() = %d, want 500", s.Now())
	}
}

func TestRunForRelative(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(100)
	s.RunFor(50)
	if s.Now() != 150 {
		t.Fatalf("Now() = %d, want 150", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Fatal("Step() on empty queue returned true")
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain scheduled from inside events must execute fully.
	s := NewScheduler()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.After(1, recurse)
		}
	}
	s.At(0, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Fatalf("Now() = %d, want 99", s.Now())
	}
}

func TestStepsCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Steps() != 7 {
		t.Fatalf("Steps() = %d, want 7", s.Steps())
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	// Two identical schedules must produce identical execution traces.
	run := func() []Time {
		s := NewScheduler()
		rng := NewRNG(42)
		var trace []Time
		for i := 0; i < 200; i++ {
			at := Time(rng.Intn(1000))
			s.At(at, func() { trace = append(trace, s.Now()) })
		}
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestRNGDurationRange(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		d := r.Duration(5, 15)
		if d < 5 || d > 15 {
			t.Fatalf("Duration(5,15) = %d out of range", d)
		}
	}
	if d := r.Duration(9, 9); d != 9 {
		t.Fatalf("Duration(9,9) = %d, want 9", d)
	}
}

// TestDurationAtAndSkipMatchSequentialDraws: reading draw k by position
// gives what the k-th of k+1 sequential draws returns, reading leaves the
// stream where it was, and Skip(k) leaves it where k draws would — over
// ranges that include a single value (no draw) and a huge one.
func TestDurationAtAndSkipMatchSequentialDraws(t *testing.T) {
	ranges := [][2]Duration{{1, 5}, {0, 3}, {-2, 2}, {1, 5000}, {0, 1 << 40}, {7, 7}}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			for k := 0; k < 40; k++ {
				ahead := NewRNG(seed)
				want := NewRNG(seed)
				var last Duration
				for i := 0; i <= k; i++ {
					last = want.Duration(lo, hi)
				}
				if got := ahead.DurationAt(k, lo, hi); got != last {
					t.Fatalf("seed %d [%d,%d]: DurationAt(%d) = %d, draw %d = %d", seed, lo, hi, k, got, k, last)
				}
				if ahead.state != seed {
					t.Fatalf("seed %d: DurationAt advanced the stream", seed)
				}
				if lo != hi {
					ahead.Skip(k + 1)
				}
				if ahead.Uint64() != want.Uint64() {
					t.Fatalf("seed %d [%d,%d]: Skip(%d) left the stream elsewhere than %d draws", seed, lo, hi, k+1, k+1)
				}
			}
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGForkIndependent(t *testing.T) {
	r := NewRNG(9)
	f := r.Fork()
	// Consuming from the fork must not change the parent's future stream.
	parent := NewRNG(9)
	_ = parent.Uint64() // parent consumed one value creating the fork
	for i := 0; i < 10; i++ {
		f.Uint64()
	}
	if r.Uint64() != parent.Uint64() {
		t.Fatal("fork consumption perturbed parent stream")
	}
}

func TestRNGFloat64InUnitInterval(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestQuickSchedulerTimeMonotonic(t *testing.T) {
	// Property: observed event times are non-decreasing regardless of
	// the insertion order of the schedule.
	prop := func(times []uint16) bool {
		s := NewScheduler()
		var seen []Time
		for _, at := range times {
			s.At(Time(at), func() { seen = append(seen, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(times)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRNGIntnBounds(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
