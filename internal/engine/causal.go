// Post-hoc causal tracing: the deal's happens-before span DAG, built
// entirely from state the simulator already retains — the chains' receipt
// logs and the engine's milestone maps. Nothing here subscribes to
// anything or draws from any RNG, so building (or not building) the DAG
// cannot perturb a run: a sweep, a replay, and an explained replay of the
// same seed execute identically. That is the property that lets the
// CriticalPath report block be always-on while reports stay byte-stable.
package engine

import (
	"fmt"
	"sort"
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

// dealReceipt pairs a receipt with its chain for deterministic ordering.
type dealReceipt struct {
	chain chain.ID
	idx   int // position in the chain's execution-ordered receipt log
	r     *chain.Receipt
}

// dealReceipts returns this deal's receipts across all chains, filtered
// by the world's label prefix, in a deterministic order (submit time,
// then inclusion time, then chain id, then execution index).
func (w *World) dealReceipts() []dealReceipt {
	ids := make([]string, 0, len(w.Chains))
	for id := range w.Chains {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)

	want := make(map[string]bool, len(causalLabels))
	for _, l := range causalLabels {
		want[w.opts.LabelPrefix+l] = true
	}
	var out []dealReceipt
	for _, id := range ids {
		c := w.Chains[chain.ID(id)]
		for i, r := range c.Receipts() {
			if want[r.Tx.Label] {
				out = append(out, dealReceipt{chain: chain.ID(id), idx: i, r: r})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.r.SubmittedAt != b.r.SubmittedAt {
			return a.r.SubmittedAt < b.r.SubmittedAt
		}
		if a.r.Time != b.r.Time {
			return a.r.Time < b.r.Time
		}
		if a.chain != b.chain {
			return a.chain < b.chain
		}
		return a.idx < b.idx
	})
	return out
}

// queueBucket classifies a receipt's mempool wait: a fee-market
// displacement by a known deviant is adversary-induced, any other
// displacement is fee pricing-out, and a plain wait (block boundary,
// capacity overflow without a fee market) is block queueing.
func (w *World) queueBucket(r *chain.Receipt) trace.Bucket {
	if r.PricedOut {
		if w.opts.Behaviors[r.OutbidBy] != (party.Behavior{}) {
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

// CausalReport is the explain view of one deal: its full span DAG, the
// critical path into the decision, and the exact latency attribution.
type CausalReport struct {
	Spans       []trace.Span
	Path        []trace.Span
	Attribution trace.Attribution
}

// Causal builds the deal's causal report from the evaluated result. The
// terminal is the final phase milestone (the decision, when the deal
// decided; the last completed phase otherwise).
func (w *World) Causal(r *Result) *CausalReport {
	spans := w.DealSpans(r)
	rep := &CausalReport{Spans: spans}
	terminal := -1
	for i, s := range spans {
		if s.Kind == trace.KindPhase {
			terminal = i
		}
	}
	if terminal >= 0 {
		rep.Path = trace.CriticalPath(spans, terminal)
	}
	if r.Phases.DecisionEnd > r.Phases.Start {
		rep.Attribution = trace.Attribute(spans, r.Phases.Start, r.Phases.DecisionEnd)
	}
	return rep
}

// ExplainDeal renders the deal's critical path and attribution as the
// annotated timeline the -explain flags print.
func (w *World) ExplainDeal(r *Result) (string, error) {
	rep := w.Causal(r)
	var b strings.Builder
	fmt.Fprintf(&b, "deal %s: %s\n", r.Spec.ID, outcomeWord(r))
	if err := trace.FprintPath(&b, rep.Path, rep.Attribution); err != nil {
		return "", err
	}
	return b.String(), nil
}

func outcomeWord(r *Result) string {
	switch {
	case r.AllCommitted:
		return "COMMITTED everywhere"
	case r.AllAborted:
		return "ABORTED everywhere"
	}
	return "MIXED outcomes"
}

// attribute computes the always-on latency attribution for the result;
// nil when the deal never reached a decision. It equals Attribute over
// DealSpans, but builds only what Attribute reads: each receipt's submit
// and queued spans with their kind, interval and bucket. Names, details,
// parents and the phase milestones (which carry no bucket) are left out.
func (w *World) attribute(r *Result) *trace.Attribution {
	if r.Phases.DecisionEnd <= r.Phases.Start {
		return nil
	}
	recs := w.dealReceipts()
	spans := make([]trace.Span, 0, 2*len(recs))
	for _, dr := range recs {
		rc := dr.r
		spans = append(spans,
			trace.Span{Kind: trace.KindSubmit, Start: rc.SubmittedAt, End: rc.ArrivedAt, Bucket: trace.BucketProtocolWait},
			trace.Span{Kind: trace.KindQueued, Start: rc.ArrivedAt, End: rc.Time, Bucket: w.queueBucket(rc)})
	}
	a := trace.Attribute(spans, r.Phases.Start, r.Phases.DecisionEnd)
	return &a
}
