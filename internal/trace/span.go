// Causal spans: the typed, happens-before upgrade of the flat event log.
//
// A Span is an interval of sim time on a named track (a chain, a party,
// or the deal's own milestone lane) with explicit Parents edges encoding
// happens-before: a transaction's mempool wait is caused by its network
// submit, a phase milestone is caused by the inclusion that completed it,
// an auction loss is caused by the winning bundle's bid. The DAG is built
// post-hoc from state the simulator already retains (receipts, milestone
// maps), so constructing it consumes no RNG and cannot perturb a run.
//
// Two pure analyses operate on the DAG:
//
//   - CriticalPath: the longest causal chain into a terminal span — the
//     sequence of waits that actually gated the deal's decision;
//   - Attribute: an exact decomposition of decision latency into five
//     cause buckets. Every tick of [start, decision] lands in exactly
//     one bucket, so the buckets sum to the total by construction.
package trace

import (
	"fmt"
	"io"
	"slices"

	"xdeal/internal/sim"
)

// Span kinds. Builders may introduce further kinds; the analyses here
// only give KindQueued and KindSubmit special treatment.
const (
	// KindSubmit is a transaction in flight: submit call → mempool
	// arrival. The network / gossip leg of the protocol.
	KindSubmit = "submit"
	// KindQueued is a transaction sitting in a mempool or bundle
	// queue: arrival → block inclusion.
	KindQueued = "queued"
	// KindPhase is a deal milestone interval (escrow, transfer,
	// validation, decision) on the deal's own track.
	KindPhase = "phase"
)

// Bucket is a latency-attribution cause. Every tick of a deal's
// decision latency is assigned to exactly one bucket.
type Bucket int

const (
	// BucketNone marks spans that carry no attribution (milestones).
	BucketNone Bucket = iota
	// BucketProtocolWait: the protocol's own machinery — messages in
	// flight, notify delays, timelock depth, vote collection. No deal
	// transaction was queued for a block.
	BucketProtocolWait
	// BucketBlockQueueing: a deal transaction had arrived and was
	// waiting for the next block boundary or for block capacity.
	BucketBlockQueueing
	// BucketPricedOut: a deal transaction was deferred from a full
	// fee-market block because other bids out-tipped it.
	BucketPricedOut
	// BucketAdversary: as BucketPricedOut, but the marginal bid that
	// displaced the transaction came from a known deviant party.
	BucketAdversary
	// BucketSlack: the decision had already landed on chain; the
	// remaining latency is observation scheduling (notify gossip).
	BucketSlack
)

// String returns the stable report name of the bucket.
func (b Bucket) String() string {
	switch b {
	case BucketProtocolWait:
		return "protocol-wait"
	case BucketBlockQueueing:
		return "block-queueing"
	case BucketPricedOut:
		return "fee-priced-out"
	case BucketAdversary:
		return "adversary"
	case BucketSlack:
		return "scheduling-slack"
	}
	return ""
}

// Buckets lists the five attribution buckets in report order.
var Buckets = []Bucket{BucketProtocolWait, BucketBlockQueueing, BucketPricedOut, BucketAdversary, BucketSlack}

// Span is one interval in a causal DAG. Spans live in a slice; ID is
// the span's index in that slice and Parents holds the indices of its
// happens-before predecessors.
type Span struct {
	ID      int
	Deal    string   // deal identifier ("" for single-deal worlds)
	Track   string   // rendering lane: chain id, "deal", "cbc", ...
	Kind    string   // KindSubmit, KindQueued, KindPhase, ...
	Name    string   // human label, e.g. "escrow.deposit by bob"
	Start   sim.Time // inclusive
	End     sim.Time // exclusive; >= Start
	Bucket  Bucket   // attribution class, BucketNone for milestones
	Parents []int    // happens-before edges (indices into the slice)
	Detail  string   // free-form annotation (height, tip, deferrals)
}

// Duration returns the span length in ticks.
func (s Span) Duration() sim.Duration { return sim.Duration(s.End - s.Start) }

// Attribution is the exact decomposition of one deal's decision latency
// into cause buckets, in sim ticks. The five buckets partition
// [start, decision], so they sum to Total exactly (integer arithmetic,
// no rounding) — the conservation invariant the tests assert.
type Attribution struct {
	ProtocolWait  sim.Duration `json:"protocol_wait"`
	BlockQueueing sim.Duration `json:"block_queueing"`
	PricedOut     sim.Duration `json:"fee_priced_out"`
	Adversary     sim.Duration `json:"adversary"`
	Slack         sim.Duration `json:"scheduling_slack"`
	Total         sim.Duration `json:"total"`
}

// Sum returns the bucket total; conservation means Sum() == Total.
func (a Attribution) Sum() sim.Duration {
	return a.ProtocolWait + a.BlockQueueing + a.PricedOut + a.Adversary + a.Slack
}

// ByBucket returns the named bucket's share of the decomposition.
func (a Attribution) ByBucket(b Bucket) sim.Duration {
	switch b {
	case BucketProtocolWait:
		return a.ProtocolWait
	case BucketBlockQueueing:
		return a.BlockQueueing
	case BucketPricedOut:
		return a.PricedOut
	case BucketAdversary:
		return a.Adversary
	case BucketSlack:
		return a.Slack
	}
	return 0
}

// bucketRank orders buckets by blame priority for overlapping spans: if
// a tick is covered both by an adversary-deferred wait and an ordinary
// queue wait, the adversary owns it.
func bucketRank(b Bucket) int {
	switch b {
	case BucketAdversary:
		return 4
	case BucketPricedOut:
		return 3
	case BucketBlockQueueing:
		return 2
	case BucketProtocolWait:
		return 1
	}
	return 0
}

// Attribute decomposes the interval [start, decision] over the deal's
// spans. Classification, per tick, by priority:
//
//  1. covered by a queued span blamed on a deviant  → adversary
//  2. covered by a priced-out queued span           → fee-priced-out
//  3. covered by any queued span                    → block-queueing
//  4. covered by a submit span, or uncovered before
//     the last inclusion                            → protocol-wait
//  5. uncovered after the last inclusion            → scheduling-slack
//
// Spans with BucketNone (milestones) do not participate. The result is
// exact: the buckets partition the interval, so Sum() == Total.
func Attribute(spans []Span, start, decision sim.Time) Attribution {
	ivs := make([]Interval, len(spans))
	for i, s := range spans {
		ivs[i] = Interval{Queued: s.Kind == KindQueued, Start: s.Start, End: s.End, Bucket: s.Bucket}
	}
	return AttributeIntervals(ivs, start, decision)
}

// Interval is what Attribute reads of a span: whether it is a queued span
// (whose end is an on-chain inclusion), its interval and its bucket.
type Interval struct {
	Queued     bool
	Start, End sim.Time
	Bucket     Bucket
}

// AttributeIntervals is Attribute over the spans' intervals, in any order.
func AttributeIntervals(ivs []Interval, start, decision sim.Time) Attribution {
	if decision <= start {
		return Attribution{}
	}
	a := Attribution{Total: sim.Duration(decision - start)}

	// The last on-chain inclusion at or before the decision bounds the
	// slack region: past it, nothing was pending — the residual wait is
	// pure observation scheduling.
	lastIncl := start
	for _, iv := range ivs {
		if iv.Queued && iv.End > lastIncl && iv.End <= decision {
			lastIncl = iv.End
		}
	}

	// Boundary sweep over elementary intervals, all inside [start, decision]:
	// covering one needs no clipping, and an interval taking no part covers none.
	cuts := append(make([]sim.Time, 0, 3+2*len(ivs)), start, decision, lastIncl)
	for _, iv := range ivs {
		if iv.Bucket == BucketNone || iv.End <= start || iv.Start >= decision || iv.End <= iv.Start {
			continue
		}
		cuts = append(cuts, max(iv.Start, start), min(iv.End, decision))
	}
	slices.Sort(cuts)

	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		best := BucketNone
		for _, iv := range ivs {
			if iv.Start <= lo && iv.End >= hi && bucketRank(iv.Bucket) > bucketRank(best) {
				best = iv.Bucket
			}
		}
		if best == BucketNone {
			if lo < lastIncl {
				best = BucketProtocolWait
			} else {
				best = BucketSlack
			}
		}
		d := sim.Duration(hi - lo)
		switch best {
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

// CriticalPath extracts the longest causal chain ending at the terminal
// span (by covered duration, deterministically tie-broken toward the
// lowest span ID) and returns it in chronological order. The terminal
// is typically the deal's decision milestone.
func CriticalPath(spans []Span, terminal int) []Span {
	if terminal < 0 || terminal >= len(spans) {
		return nil
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]int, len(spans))
	score := make([]sim.Duration, len(spans))
	via := make([]int, len(spans))
	for i := range via {
		via[i] = -1
	}
	var visit func(i int) sim.Duration
	visit = func(i int) sim.Duration {
		if state[i] == done {
			return score[i]
		}
		if state[i] == visiting { // defensive: a cycle contributes nothing
			return 0
		}
		state[i] = visiting
		best := sim.Duration(0)
		for _, p := range spans[i].Parents {
			if p < 0 || p >= len(spans) || p == i {
				continue
			}
			s := visit(p)
			if state[p] != done {
				// p is an ancestor mid-visit: a back edge. Linking to
				// it would make the via chain cyclic, so skip it.
				continue
			}
			if s > best || (s == best && via[i] >= 0 && p < via[i]) {
				best, via[i] = s, p
			} else if s == best && via[i] < 0 {
				via[i] = p
			}
		}
		score[i] = best + spans[i].Duration()
		state[i] = done
		return score[i]
	}
	visit(terminal)

	var rev []Span
	for i := terminal; i >= 0; i = via[i] {
		rev = append(rev, spans[i])
	}
	out := make([]Span, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// FprintPath renders a critical path as an annotated timeline followed
// by the latency-attribution table — the "explain" view of one deal.
func FprintPath(w io.Writer, path []Span, att Attribution) error {
	total := sim.Duration(0)
	for _, s := range path {
		total += s.Duration()
	}
	if _, err := fmt.Fprintf(w, "critical path (%d spans, %d ticks on the chain):\n", len(path), total); err != nil {
		return err
	}
	for _, s := range path {
		tag := ""
		if s.Bucket != BucketNone {
			tag = "  [" + s.Bucket.String() + "]"
		}
		detail := s.Detail
		if detail != "" {
			detail = "  (" + detail + ")"
		}
		if _, err := fmt.Fprintf(w, "  t=%6d .. %6d  %-12s %-8s %s%s%s\n",
			s.Start, s.End, s.Track, s.Kind, s.Name, tag, detail); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "latency attribution (decision latency %d ticks):\n", att.Total); err != nil {
		return err
	}
	for _, b := range Buckets {
		d := att.ByBucket(b)
		share := 0.0
		if att.Total > 0 {
			share = float64(d) / float64(att.Total)
		}
		if _, err := fmt.Fprintf(w, "  %-16s %8d  %5.1f%%\n", b, d, 100*share); err != nil {
			return err
		}
	}
	return nil
}
