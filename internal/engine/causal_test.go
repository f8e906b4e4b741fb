package engine

import (
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/feemarket"
	"xdeal/internal/party"
	"xdeal/internal/sim"
	"xdeal/internal/trace"
)

// requireConserved asserts the attribution partitions the decision
// latency exactly: every tick of start→decision lands in exactly one
// bucket, so the bucket sum equals the total with no rounding.
func requireConserved(t *testing.T, r *Result) {
	t.Helper()
	if r.Attribution == nil {
		t.Fatalf("no attribution on a decided deal:\n%s", r.Summary())
	}
	latency := sim.Duration(r.Phases.DecisionEnd - r.Phases.Start)
	if got := r.Attribution.Total; got != latency {
		t.Fatalf("attribution total %d != decision latency %d", got, latency)
	}
	if sum := r.Attribution.Sum(); sum != r.Attribution.Total {
		t.Fatalf("buckets sum to %d, total is %d — %d ticks unattributed:\n%+v",
			sum, r.Attribution.Total, r.Attribution.Total-sum, r.Attribution)
	}
}

// TestAttributionConservationTimelock: the always-on attribution on the
// timelock protocol conserves latency exactly.
func TestAttributionConservationTimelock(t *testing.T) {
	r := runBroker(t, Options{Seed: 1, Protocol: party.ProtoTimelock})
	requireConserved(t, r)
	if r.Attribution.ProtocolWait == 0 {
		t.Fatalf("no protocol-wait time on a committed timelock deal:\n%+v", r.Attribution)
	}
}

// TestAttributionConservationCBC: identical conservation invariant on
// the certified-blockchain protocol, whose voting rounds all land in
// protocol-wait.
func TestAttributionConservationCBC(t *testing.T) {
	r := runBroker(t, Options{Seed: 2, Protocol: party.ProtoCBC, F: 1})
	requireConserved(t, r)
}

// TestAttributionConservationUnderFeeMarket: a congested fee-market run
// exercises the queueing buckets and still conserves exactly.
func TestAttributionConservationUnderFeeMarket(t *testing.T) {
	w, err := Build(deal.RingSpec(4, 5000, 1000), Options{
		Seed:     21,
		Protocol: party.ProtoTimelock,
		World:    SubstrateConfig{FeeMarket: &feemarket.Config{Initial: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	requireConserved(t, r)
}

// TestAttributionConservationOnAbort: deviant runs decide by aborting;
// the attribution must cover that path too.
func TestAttributionConservationOnAbort(t *testing.T) {
	r := runBroker(t, Options{Seed: 3, Protocol: party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"bob": {SkipEscrow: true}}})
	if r.AllCommitted {
		t.Fatal("skip-escrow deal committed anyway")
	}
	requireConserved(t, r)
}

// TestDealSpansFormWellFormedDAG: spans are indexed by position, parent
// edges point backward (happens-before respects the topological order),
// and the final phase span is the decision milestone.
func TestDealSpansFormWellFormedDAG(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 1, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	spans := w.DealSpans(r)
	if len(spans) == 0 {
		t.Fatal("no spans from a completed deal")
	}
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
		if s.Deal != spec.ID {
			t.Fatalf("span %d belongs to deal %q, want %q", i, s.Deal, spec.ID)
		}
		for _, p := range s.Parents {
			if p < 0 || p >= i {
				t.Fatalf("span %d has non-backward parent %d", i, p)
			}
		}
	}
	lastPhase := spans[len(spans)-1]
	if lastPhase.Kind != trace.KindPhase || lastPhase.Name != "decision" {
		t.Fatalf("final span is %s/%s, want phase/decision", lastPhase.Kind, lastPhase.Name)
	}
	// Post-hoc means repeatable: a second derivation is identical.
	again := w.DealSpans(r)
	if len(again) != len(spans) {
		t.Fatalf("second derivation has %d spans, first had %d", len(again), len(spans))
	}
}

// TestCausalCriticalPathEndsAtDecision: the extracted path is
// chronological and terminates at the decision milestone.
func TestCausalCriticalPathEndsAtDecision(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 1, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	rep := w.Causal(r)
	if len(rep.Path) == 0 {
		t.Fatal("empty critical path")
	}
	last := rep.Path[len(rep.Path)-1]
	if last.Kind != trace.KindPhase || last.Name != "decision" {
		t.Fatalf("path ends at %s/%s, want phase/decision", last.Kind, last.Name)
	}
	// Causal order: each span completes no earlier than its predecessor
	// (starts may rewind — a phase span opens at the previous milestone
	// even when its causing inclusion landed later).
	for i := 1; i < len(rep.Path); i++ {
		if rep.Path[i].End < rep.Path[i-1].End {
			t.Fatalf("path not causally ordered at %d: ends %d after %d",
				i, rep.Path[i].End, rep.Path[i-1].End)
		}
	}
	if rep.Attribution.Sum() != rep.Attribution.Total {
		t.Fatalf("causal report attribution not conserved: %+v", rep.Attribution)
	}
}

// TestExplainDealRenders: the explain view names the deal, its outcome,
// the critical path, and the attribution table.
func TestExplainDealRenders(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 1, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	out, err := w.ExplainDeal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"deal " + spec.ID + ": COMMITTED everywhere",
		"critical path (",
		"latency attribution (decision latency",
		"protocol-wait",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output lacks %q:\n%s", want, out)
		}
	}
}
