package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestLogOrdersByTimeThenArrival(t *testing.T) {
	l := New()
	l.Add(30, "b", "x", "third")
	l.Add(10, "a", "x", "first")
	l.Add(30, "a", "x", "fourth") // same time as "third", added later
	l.Add(20, "c", "y", "second")

	ev := l.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	want := []string{"first", "second", "third", "fourth"}
	for i, e := range ev {
		if e.Detail != want[i] {
			t.Fatalf("event %d = %q, want %q", i, e.Detail, want[i])
		}
	}
}

func TestAddf(t *testing.T) {
	l := New()
	l.Addf(5, "src", "kind", "n=%d s=%s", 7, "x")
	if got := l.Events()[0].Detail; got != "n=7 s=x" {
		t.Fatalf("detail = %q", got)
	}
}

func TestFprintFormat(t *testing.T) {
	l := New()
	l.Add(42, "coinchain", "committed", "deal broker")
	var buf bytes.Buffer
	l.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"t=    42", "coinchain", "committed", "deal broker"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEventsIsACopy(t *testing.T) {
	l := New()
	l.Add(1, "a", "k", "orig")
	ev := l.Events()
	ev[0].Detail = "mutated"
	if l.Events()[0].Detail != "orig" {
		t.Fatal("Events aliases internal storage")
	}
}

func TestLen(t *testing.T) {
	l := New()
	if l.Len() != 0 {
		t.Fatal("new log not empty")
	}
	l.Add(1, "a", "k", "")
	if l.Len() != 1 {
		t.Fatal("Len != 1")
	}
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}
