package trace

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"xdeal/internal/sim"
)

// TestAttributeConservation: the five buckets partition [start, decision]
// exactly — integer ticks, no rounding — across overlapping, clipped, and
// degenerate span sets.
func TestAttributeConservation(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
	}{
		{"empty", nil},
		{"one queue span", []Span{
			{Kind: KindQueued, Start: 10, End: 40, Bucket: BucketBlockQueueing},
		}},
		{"overlapping priorities", []Span{
			{Kind: KindSubmit, Start: 0, End: 20, Bucket: BucketProtocolWait},
			{Kind: KindQueued, Start: 10, End: 50, Bucket: BucketBlockQueueing},
			{Kind: KindQueued, Start: 30, End: 60, Bucket: BucketAdversary},
			{Kind: KindQueued, Start: 35, End: 55, Bucket: BucketPricedOut},
		}},
		{"spans outside the window", []Span{
			{Kind: KindQueued, Start: -50, End: -10, Bucket: BucketBlockQueueing},
			{Kind: KindQueued, Start: 500, End: 600, Bucket: BucketBlockQueueing},
			{Kind: KindQueued, Start: -5, End: 120, Bucket: BucketPricedOut},
		}},
		{"milestones ignored", []Span{
			{Kind: KindPhase, Start: 0, End: 100, Bucket: BucketNone},
			{Kind: KindQueued, Start: 20, End: 30, Bucket: BucketBlockQueueing},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := Attribute(tc.spans, 0, 100)
			if a.Total != 100 {
				t.Fatalf("total = %d, want 100", a.Total)
			}
			if a.Sum() != a.Total {
				t.Fatalf("buckets sum to %d, total %d: %+v", a.Sum(), a.Total, a)
			}
		})
	}
}

func TestAttributeEmptyWindow(t *testing.T) {
	a := Attribute(nil, 50, 50)
	if a != (Attribution{}) {
		t.Fatalf("degenerate window attributed: %+v", a)
	}
	if a := Attribute(nil, 60, 50); a != (Attribution{}) {
		t.Fatalf("inverted window attributed: %+v", a)
	}
}

// TestAttributePriority: a tick covered by several waits is blamed on
// the highest-priority cause — adversary over priced-out over queueing
// over protocol wait.
func TestAttributePriority(t *testing.T) {
	spans := []Span{
		{Kind: KindSubmit, Start: 0, End: 100, Bucket: BucketProtocolWait},
		{Kind: KindQueued, Start: 10, End: 100, Bucket: BucketBlockQueueing},
		{Kind: KindQueued, Start: 20, End: 100, Bucket: BucketPricedOut},
		{Kind: KindQueued, Start: 30, End: 100, Bucket: BucketAdversary},
	}
	a := Attribute(spans, 0, 100)
	want := Attribution{ProtocolWait: 10, BlockQueueing: 10, PricedOut: 10, Adversary: 70, Total: 100}
	if a != want {
		t.Fatalf("attribution = %+v, want %+v", a, want)
	}
}

// TestAttributeSlack: ticks after the last inclusion with nothing
// pending are scheduling slack; uncovered ticks before it are protocol
// wait (timers, votes, gossip).
func TestAttributeSlack(t *testing.T) {
	spans := []Span{
		{Kind: KindQueued, Start: 10, End: 40, Bucket: BucketBlockQueueing},
	}
	a := Attribute(spans, 0, 100)
	want := Attribution{ProtocolWait: 10, BlockQueueing: 30, Slack: 60, Total: 100}
	if a != want {
		t.Fatalf("attribution = %+v, want %+v", a, want)
	}
}

// TestAttributeNoInclusions: with no queued span at all, nothing ever
// landed — the whole window is slack past t=start.
func TestAttributeNoInclusions(t *testing.T) {
	a := Attribute([]Span{{Kind: KindSubmit, Start: 5, End: 15, Bucket: BucketProtocolWait}}, 0, 30)
	want := Attribution{ProtocolWait: 10, Slack: 20, Total: 30}
	if a != want {
		t.Fatalf("attribution = %+v, want %+v", a, want)
	}
}

// TestCriticalPathPicksLongestChain: two parent chains into the
// terminal; the path follows the one with more covered duration.
func TestCriticalPathPicksLongestChain(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: "short", Start: 0, End: 5},
		{ID: 1, Name: "long-a", Start: 0, End: 30},
		{ID: 2, Name: "long-b", Start: 30, End: 50, Parents: []int{1}},
		{ID: 3, Name: "decision", Start: 50, End: 60, Parents: []int{0, 2}},
	}
	path := CriticalPath(spans, 3)
	var names []string
	for _, s := range path {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, ","), "long-a,long-b,decision"; got != want {
		t.Fatalf("path = %s, want %s", got, want)
	}
}

// TestCriticalPathDeterministicTieBreak: equal-score parents resolve to
// the lowest span ID, so replays render the identical path.
func TestCriticalPathDeterministicTieBreak(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: "a", Start: 0, End: 10},
		{ID: 1, Name: "b", Start: 0, End: 10},
		{ID: 2, Name: "decision", Start: 10, End: 20, Parents: []int{1, 0}},
	}
	path := CriticalPath(spans, 2)
	if len(path) != 2 || path[0].Name != "a" {
		t.Fatalf("tie not broken toward lowest ID: %+v", path)
	}
}

func TestCriticalPathBadTerminal(t *testing.T) {
	if p := CriticalPath(nil, 0); p != nil {
		t.Fatalf("empty DAG produced a path: %+v", p)
	}
	if p := CriticalPath([]Span{{ID: 0}}, -1); p != nil {
		t.Fatalf("negative terminal produced a path: %+v", p)
	}
}

// TestCriticalPathSurvivesCycle: a (malformed) cycle must not hang or
// recurse forever; the cycle edge contributes nothing.
func TestCriticalPathSurvivesCycle(t *testing.T) {
	spans := []Span{
		{ID: 0, Name: "a", Start: 0, End: 10, Parents: []int{1}},
		{ID: 1, Name: "b", Start: 10, End: 20, Parents: []int{0}},
	}
	path := CriticalPath(spans, 1)
	if len(path) == 0 {
		t.Fatal("no path extracted")
	}
}

func TestFprintPath(t *testing.T) {
	spans := []Span{
		{ID: 0, Track: "coinchain", Kind: KindQueued, Name: "escrow.deposit by bob",
			Start: 10, End: 40, Bucket: BucketBlockQueueing, Detail: "height=2"},
		{ID: 1, Track: "deal", Kind: KindPhase, Name: "decision", Start: 40, End: 60, Parents: []int{0}},
	}
	att := Attribute(spans, 0, 60)
	var buf bytes.Buffer
	if err := FprintPath(&buf, CriticalPath(spans, 1), att); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"critical path (2 spans",
		"escrow.deposit by bob",
		"[block-queueing]",
		"(height=2)",
		"latency attribution (decision latency 60 ticks):",
		"protocol-wait",
		"scheduling-slack",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestFprintPathPropagatesWriteErrors mirrors the Fprint satellite: a
// failing writer surfaces, not vanishes.
func TestFprintPathPropagatesWriteErrors(t *testing.T) {
	spans := []Span{{ID: 0, Track: "c", Kind: KindQueued, Name: "x", Start: 0, End: 1, Bucket: BucketBlockQueueing}}
	if err := FprintPath(failWriter{}, spans, Attribute(spans, 0, 1)); err == nil {
		t.Fatal("write error swallowed")
	}
}

func TestBucketStrings(t *testing.T) {
	want := []string{"protocol-wait", "block-queueing", "fee-priced-out", "adversary", "scheduling-slack"}
	for i, b := range Buckets {
		if b.String() != want[i] {
			t.Fatalf("bucket %d = %q, want %q", i, b.String(), want[i])
		}
	}
	if BucketNone.String() != "" {
		t.Fatalf("BucketNone = %q", BucketNone.String())
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Start: 10, End: 25}
	if s.Duration() != sim.Duration(15) {
		t.Fatalf("duration = %d", s.Duration())
	}
}

// spanSweep is the reference attribution: the sweep over clipped copies
// of the participating spans, which the interval form must agree with.
func spanSweep(spans []Span, start, decision sim.Time) Attribution {
	if decision <= start {
		return Attribution{}
	}
	a := Attribution{Total: sim.Duration(decision - start)}
	lastIncl := start
	for _, s := range spans {
		if s.Kind == KindQueued && s.End > lastIncl && s.End <= decision {
			lastIncl = s.End
		}
	}
	cuts := []sim.Time{start, decision, lastIncl}
	var active []Span
	for _, s := range spans {
		if s.Bucket == BucketNone || s.End <= start || s.Start >= decision || s.End <= s.Start {
			continue
		}
		s.Start, s.End = max(s.Start, start), min(s.End, decision)
		active = append(active, s)
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		best := BucketNone
		for _, s := range active {
			if s.Start <= lo && s.End >= hi && bucketRank(s.Bucket) > bucketRank(best) {
				best = s.Bucket
			}
		}
		if best == BucketNone {
			best = BucketSlack
			if lo < lastIncl {
				best = BucketProtocolWait
			}
		}
		switch d := sim.Duration(hi - lo); best {
		case BucketProtocolWait:
			a.ProtocolWait += d
		case BucketBlockQueueing:
			a.BlockQueueing += d
		case BucketPricedOut:
			a.PricedOut += d
		case BucketAdversary:
			a.Adversary += d
		case BucketSlack:
			a.Slack += d
		}
	}
	return a
}

// TestAttributeIntervalsMatchesSpanSweep: over random span sets — phase
// milestones with no bucket, spans crossing start or the decision,
// zero-length and inverted spans, and windows with decision ≤ start —
// Attribute and AttributeIntervals over the spans' intervals, in any
// order, equal the span sweep they replace.
func TestAttributeIntervalsMatchesSpanSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	kinds := []string{KindSubmit, KindQueued, KindPhase}
	buckets := append([]Bucket{BucketNone}, Buckets...)
	for trial := 0; trial < 5000; trial++ {
		start, decision := sim.Time(rng.IntN(40)), sim.Time(rng.IntN(120))
		spans := make([]Span, rng.IntN(12))
		for i := range spans {
			// Endpoints range from before start to past the decision, and
			// End < Start (inverted) or End == Start (zero-length) occurs.
			s := sim.Time(rng.IntN(160)) - 20
			spans[i] = Span{
				Kind: kinds[rng.IntN(len(kinds))], Bucket: buckets[rng.IntN(len(buckets))],
				Start: s, End: s + sim.Time(rng.IntN(80)) - 10,
			}
		}
		want := spanSweep(spans, start, decision)
		if got := Attribute(spans, start, decision); got != want {
			t.Fatalf("trial %d: Attribute %+v, span sweep %+v over %+v in [%d, %d]", trial, got, want, spans, start, decision)
		}
		ivs := make([]Interval, len(spans))
		for i, s := range spans {
			ivs[i] = Interval{Queued: s.Kind == KindQueued, Start: s.Start, End: s.End, Bucket: s.Bucket}
		}
		rng.Shuffle(len(ivs), func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
		if got := AttributeIntervals(ivs, start, decision); got != want {
			t.Fatalf("trial %d: AttributeIntervals %+v, span sweep %+v over %+v in [%d, %d]", trial, got, want, ivs, start, decision)
		}
	}
}
