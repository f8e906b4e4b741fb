package engine

import (
	"strings"
	"testing"

	"xdeal/internal/deal"
	"xdeal/internal/feemarket"
	"xdeal/internal/party"
	"xdeal/internal/trace"
)

// TestFeeMarketWorldCommitsAndAccountsFees: a compliant deal under a
// fee market still commits, and the result carries the fee accounting —
// burned base fees, tips from the deadline-escalating default policy,
// and per-deal attribution equal to the world totals in a private world.
func TestFeeMarketWorldCommitsAndAccountsFees(t *testing.T) {
	spec := deal.RingSpec(4, 5000, 1000)
	w, err := Build(spec, Options{
		Seed:     21,
		Protocol: party.ProtoTimelock,
		World:    SubstrateConfig{FeeMarket: &feemarket.Config{Initial: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("fee-market deal did not commit:\n%s", r.Summary())
	}
	if r.Fees == nil {
		t.Fatal("private fee-market world has no fee summary")
	}
	if r.Fees.Burned == 0 {
		t.Fatal("no base fees burned")
	}
	if r.Fees.Tipped == 0 {
		t.Fatal("default DeadlineFee policy tipped nothing")
	}
	if r.DealFees != r.Fees.Burned+r.Fees.Tipped {
		t.Fatalf("DealFees %d != world burn+tip %d in a private world",
			r.DealFees, r.Fees.Burned+r.Fees.Tipped)
	}
	if len(r.Fees.Samples) == 0 {
		t.Fatal("no tip/queue samples collected")
	}
	// Without a fee market the same world reports no fees.
	w2, err := Build(deal.RingSpec(4, 5000, 1000), Options{Seed: 21, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r2 := w2.Run()
	if r2.Fees != nil || r2.DealFees != 0 {
		t.Fatal("FIFO world grew a fee summary")
	}
}

// TestTraceRecordsActualInclusionUnderCapacity is the regression test
// for the MaxBlockTxs trace-timestamp bug: when full blocks defer
// transactions, the trace's inclusion records must carry the block that
// actually included each transaction — with the mempool queuing delay —
// not the time the transaction was published, so decision-latency
// metrics see the whole queuing delay.
func TestTraceRecordsActualInclusionUnderCapacity(t *testing.T) {
	spec := deal.RingSpec(4, 9000, 1000)
	log := trace.New()
	w, err := Build(spec, Options{
		Seed:     33,
		Protocol: party.ProtoTimelock,
		World:    SubstrateConfig{MaxBlockTxs: 1}, // brutal capacity: every block defers the rest
		Trace:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("capped deal did not commit:\n%s", r.Summary())
	}

	included := log.Filter("included")
	if len(included) == 0 {
		t.Fatal("trace has no inclusion records")
	}
	queued := 0
	for _, e := range included {
		if strings.Contains(e.Detail, "after 0 queued") {
			continue
		}
		queued++
	}
	if queued == 0 {
		t.Fatal("cap-1 blocks deferred transactions, yet every trace record shows zero queuing delay")
	}

	// Cross-check against the chains: every receipt's inclusion time is
	// the block time, strictly after its mempool arrival when deferred.
	deferred := 0
	for _, c := range w.Chains {
		for _, rc := range c.Receipts() {
			if rc.Time < rc.ArrivedAt {
				t.Fatalf("receipt included at %d before arriving at %d", rc.Time, rc.ArrivedAt)
			}
			if rc.Queued() > 10 { // more than one block interval: genuinely deferred
				deferred++
			}
		}
	}
	if deferred == 0 {
		t.Fatal("no transaction was deferred past a block under cap 1; the scenario is degenerate")
	}
	// The decision phase must reflect the queueing: a cap-1 run decides
	// strictly later than an uncapped twin of the same seed.
	w2, err := Build(deal.RingSpec(4, 9000, 1000), Options{Seed: 33, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r2 := w2.Run()
	if !r2.AllCommitted {
		t.Fatal("uncapped twin did not commit")
	}
	if r.Phases.DecisionEnd <= r2.Phases.DecisionEnd {
		t.Fatalf("capped decision at %d not later than uncapped %d: queuing delay unreported",
			r.Phases.DecisionEnd, r2.Phases.DecisionEnd)
	}
}
