// Package trace provides a chronological, human-readable record of a deal
// execution across all its chains: escrows, tentative transfers, votes,
// proofs, outcomes. The engine feeds it when tracing is enabled;
// dealsweep prints it with -trace for one deal or an isolated replay.
//
// Traces exist for the humans running experiments — the protocols never
// read them — so the format optimizes for reading a multi-chain
// interleaving at a glance.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"xdeal/internal/sim"
)

// Event is one recorded protocol observation. Seq is the arrival index
// within the log; external tooling can merge concatenated logs and
// re-sort them exactly the way Events does (At, then Seq).
type Event struct {
	At     sim.Time
	Source string // e.g. "coinchain", "cbc", "engine"
	Kind   string // e.g. "escrowed", "vote-accepted", "committed"
	Detail string
	Seq    int
}

// Log collects events in arrival order. Safe for concurrent use, although
// the simulator is single-threaded; the lock makes the type safe for
// external tooling too.
type Log struct {
	mu     sync.Mutex
	events []Event
	next   int
}

// New creates an empty log.
func New() *Log { return &Log{} }

// Add records an event.
func (l *Log) Add(at sim.Time, source, kind, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{At: at, Source: source, Kind: kind, Detail: detail, Seq: l.next})
	l.next++
}

// Addf records an event with a formatted detail string.
func (l *Log) Addf(at sim.Time, source, kind, format string, args ...any) {
	l.Add(at, source, kind, fmt.Sprintf(format, args...))
}

// Events returns a copy of the events in chronological order (ties broken
// by arrival).
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Fprint renders the log as an aligned timeline. The first writer error
// stops the rendering and is returned.
func (l *Log) Fprint(w io.Writer) error {
	for _, e := range l.Events() {
		if _, err := fmt.Fprintf(w, "t=%6d  %-12s %-16s %s\n", e.At, e.Source, e.Kind, e.Detail); err != nil {
			return err
		}
	}
	return nil
}
