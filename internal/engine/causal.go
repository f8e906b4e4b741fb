// Post-hoc causal tracing: the deal's happens-before span DAG, built
// entirely from state the simulator already retains — the substrate's
// receipt index and the engine's milestone maps. The index's receipt
// observer, like everything here, draws no RNG and schedules nothing, so
// building (or not building) the DAG cannot perturb a run: a sweep, a
// replay, and an explained replay of the same seed execute identically.
// That lets the CriticalPath report block be always-on, reports byte-stable.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"xdeal/internal/chain"
	"xdeal/internal/party"
	"xdeal/internal/sim"
	"xdeal/internal/trace"
)

// causalLabels are the per-deal transaction labels that participate in
// the span DAG: everything a running deal submits. Setup (minting,
// approvals) predates the deal's start and is excluded.
var causalLabels = []string{
	party.LabelEscrow, party.LabelTransfer, party.LabelCommit,
	party.LabelAbort, party.LabelHedge,
}

// dealReceipt is a receipt-index entry: a receipt and where it executed.
type dealReceipt struct {
	chain chain.ID
	idx   int // position in the chain's execution-ordered receipt log
	r     *chain.Receipt
}

// dealReceipts returns this deal's receipts across its chains, read from
// the substrate's receipt index, in a deterministic order (submit time,
// then inclusion time, then chain id, then execution index).
func (w *World) dealReceipts() []dealReceipt {
	var out []dealReceipt
	for _, dr := range w.sub.receipts[w.opts.LabelPrefix] {
		// Deals sharing a prefix share an entry; keep this deal's chains.
		if w.Chains[dr.chain] != nil {
			out = append(out, dr)
		}
	}
	slices.SortFunc(out, func(a, b dealReceipt) int {
		return cmp.Or(
			cmp.Compare(a.r.SubmittedAt, b.r.SubmittedAt),
			cmp.Compare(a.r.Time, b.r.Time),
			cmp.Compare(a.chain, b.chain),
			cmp.Compare(a.idx, b.idx))
	})
	return out
}

// queueBucket classifies a receipt's mempool wait: a fee-market
// displacement by a party running a deviation strategy — of any deal on
// the substrate — is adversary-induced, any other displacement (a
// hedged or compliant bidder's) is fee pricing-out, and a plain wait
// (block boundary, capacity overflow without a fee market) is block
// queueing.
func (w *World) queueBucket(r *chain.Receipt) trace.Bucket {
	if r.PricedOut {
		if w.sub.adversaries[r.OutbidBy] {
			return trace.BucketAdversary
		}
		return trace.BucketPricedOut
	}
	return trace.BucketBlockQueueing
}

// DealSpans builds the deal's causal span DAG: per transaction a submit
// span (publish → mempool arrival) chained to a queued span (arrival →
// inclusion), receipts chained to the latest prior inclusion that could
// have caused their submission, and the four phase milestones on the
// deal's own track. The final span is the decision milestone; its index
// (the terminal for CriticalPath) is len(spans)-1.
//
// Purely post-hoc: reads retained receipts and milestones only.
func (w *World) DealSpans(r *Result) []trace.Span {
	recs := w.dealReceipts()
	var spans []trace.Span
	add := func(s trace.Span) int {
		s.ID = len(spans)
		spans = append(spans, s)
		return s.ID
	}
	dealID := r.Spec.ID

	queued := make([]int, len(recs)) // receipt -> its queued span
	for i, dr := range recs {
		rc := dr.r
		name := fmt.Sprintf("%s.%s by %s", rc.Tx.Contract, rc.Tx.Method, rc.Tx.Sender)
		sub := add(trace.Span{
			Deal: dealID, Track: string(dr.chain), Kind: trace.KindSubmit, Name: name,
			Start: rc.SubmittedAt, End: rc.ArrivedAt, Bucket: trace.BucketProtocolWait,
		})
		// The submit's cause: the latest earlier inclusion whose receipt
		// the sender could have observed before publishing.
		for j := i - 1; j >= 0; j-- {
			if recs[j].r.Time <= rc.SubmittedAt {
				spans[sub].Parents = append(spans[sub].Parents, queued[j])
				break
			}
		}
		detail := fmt.Sprintf("height=%d tip=%d", rc.Height, rc.TipPaid)
		if rc.Deferrals > 0 {
			detail += fmt.Sprintf(" deferrals=%d", rc.Deferrals)
		}
		if rc.PricedOut {
			detail += " outbid-by=" + string(rc.OutbidBy)
		}
		if rc.Err != nil {
			detail += " err=" + rc.Err.Error()
		}
		queued[i] = add(trace.Span{
			Deal: dealID, Track: string(dr.chain), Kind: trace.KindQueued, Name: name,
			Start: rc.ArrivedAt, End: rc.Time, Bucket: w.queueBucket(rc),
			Parents: []int{sub}, Detail: detail,
		})
	}

	// Phase milestones on the deal track, each caused by its predecessor
	// and by the latest inclusion at or before its completion.
	latestInclusion := func(t sim.Time) int {
		best := -1
		for i, dr := range recs {
			if dr.r.Time <= t && (best < 0 || dr.r.Time > recs[best].r.Time) {
				best = i
			}
		}
		if best < 0 {
			return -1
		}
		return queued[best]
	}
	prev := -1
	last := r.Phases.Start
	for _, m := range []struct {
		name string
		end  sim.Time
	}{
		{"escrow", r.Phases.EscrowEnd},
		{"transfer", r.Phases.TransferEnd},
		{"validation", r.Phases.ValidationEnd},
		{"decision", r.Phases.DecisionEnd},
	} {
		if m.end == 0 {
			continue
		}
		var parents []int
		if prev >= 0 {
			parents = append(parents, prev)
		}
		if q := latestInclusion(m.end); q >= 0 && (len(parents) == 0 || q != parents[0]) {
			parents = append(parents, q)
		}
		start := last
		if m.end < start {
			start = m.end
		}
		prev = add(trace.Span{
			Deal: dealID, Track: "deal", Kind: trace.KindPhase, Name: m.name,
			Start: start, End: m.end, Parents: parents,
		})
		last = m.end
	}
	return spans
}

// ExplainDeal renders the deal's critical path and exact latency
// attribution as the annotated timeline the -explain flags print. The
// path runs into the final phase milestone: the decision, when the deal
// decided; the last completed phase otherwise.
func (w *World) ExplainDeal(r *Result) (string, error) {
	spans := w.DealSpans(r)
	var path []trace.Span
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Kind == trace.KindPhase {
			path = trace.CriticalPath(spans, i)
			break
		}
	}
	var attr trace.Attribution
	if r.Phases.DecisionEnd > r.Phases.Start {
		attr = trace.Attribute(spans, r.Phases.Start, r.Phases.DecisionEnd)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "deal %s: %s\n", r.Spec.ID, r.Outcome())
	if err := trace.FprintPath(&b, path, attr); err != nil {
		return "", err
	}
	return b.String(), nil
}

// attribute computes the always-on latency attribution for the result;
// nil when the deal never reached a decision. It equals Attribute over
// DealSpans, but builds only what Attribute reads, unsorted: each
// receipt's submit and queued intervals with their bucket. Names,
// details, parents and the (bucketless) phase milestones are left out.
func (w *World) attribute(r *Result) *trace.Attribution {
	if r.Phases.DecisionEnd <= r.Phases.Start {
		return nil
	}
	recs := w.sub.receipts[w.opts.LabelPrefix]
	ivs := make([]trace.Interval, 0, 2*len(recs))
	for _, dr := range recs {
		if w.Chains[dr.chain] == nil {
			continue // another deal's, as in dealReceipts
		}
		rc := dr.r
		ivs = append(ivs,
			trace.Interval{Start: rc.SubmittedAt, End: rc.ArrivedAt, Bucket: trace.BucketProtocolWait},
			trace.Interval{Queued: true, Start: rc.ArrivedAt, End: rc.Time, Bucket: w.queueBucket(rc)})
	}
	a := trace.AttributeIntervals(ivs, r.Phases.Start, r.Phases.DecisionEnd)
	return &a
}
