package sim

import (
	"reflect"
	"testing"
)

// fired is one executed event of a script: when it ran, which it was,
// and the step count after it.
type fired struct {
	at    Time
	id    int
	steps uint64
}

// runScript drives s with a seeded mix of At and AfterCall events, near
// and far beyond the wheel's window, some canceled and some scheduling
// follow-ups, and runs it until limit. It returns what ran, in order,
// and the cancels of every At event it scheduled.
func runScript(s *Scheduler, seed uint64, limit Time) ([]fired, []Cancel) {
	rng := NewRNG(seed)
	var out []fired
	var cancels []Cancel
	var call func(any)
	call = func(a any) {
		id := *a.(*int)
		out = append(out, fired{s.Now(), id, s.Steps()})
		if id%3 == 0 {
			next := id + 1000
			s.AfterCall(Duration(rng.Intn(600)), call, &next)
		}
	}
	for i := 0; i < 200; i++ {
		id := i
		d := Duration(rng.Intn(3000))
		if i%2 == 0 {
			s.AfterCall(d, call, &id)
			continue
		}
		c := s.At(s.Now()+d, func() { call(&id) })
		cancels = append(cancels, c)
		if i%7 == 0 {
			c()
		}
	}
	s.RunUntil(limit)
	return out, cancels
}

// TestResetEqualsFresh runs script A, part way, on a scheduler, resets
// it, and runs script B: what B runs, its times and its step counts
// must equal B on a new scheduler, though A left events queued, and
// cancels kept from A must reach nothing after the reset.
func TestResetEqualsFresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func() *Scheduler
	}{{"wheel", NewScheduler}, {"heap", newHeapScheduler}} {
		t.Run(tc.name, func(t *testing.T) {
			reused := tc.new()
			_, stale := runScript(reused, 1, 900)
			if reused.Pending() == 0 {
				t.Fatal("script A left nothing queued; the reset drops nothing")
			}
			reused.Reset()
			if reused.Now() != 0 || reused.Steps() != 0 || reused.Pending() != 0 {
				t.Fatalf("after Reset: now %d, steps %d, pending %d", reused.Now(), reused.Steps(), reused.Pending())
			}
			for e := reused.free; e != nil; e = e.next {
				if e.call != nil || e.arg != nil {
					t.Fatal("a recycled event node still holds a call or an argument")
				}
			}
			for _, c := range stale {
				c()
			}
			got, _ := runScript(reused, 2, 1<<40)
			want, _ := runScript(tc.new(), 2, 1<<40)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("script B after a reset ran %d events, fresh %d; first difference at %d",
					len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []fired) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRNGResetEqualsFresh: a reseeded generator draws what a new one
// seeded alike draws.
func TestRNGResetEqualsFresh(t *testing.T) {
	r := NewRNG(3)
	r.Uint64()
	r.Reset(9)
	fresh := NewRNG(9)
	for i := 0; i < 10; i++ {
		if a, b := r.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reset %d, fresh %d", i, a, b)
		}
	}
}
