package engine

import (
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

// TestTimelockToleratesShortOutage: §5.3's point that Δ must dominate
// plausible denial-of-service durations. A ticket-chain outage well
// inside the vote-deadline slack delays the deal but it still commits.
func TestTimelockToleratesShortOutage(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:     91,
		Protocol: party.ProtoTimelock,
		// The ticket chain is down from the start until t=800: escrows,
		// transfers and votes queue, but deadlines (t0+|p|Δ ≥ 3000) are
		// far away.
		World: SubstrateConfig{Outages: map[chain.ID]Outage{"ticketchain": {From: 5, Until: 800}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("short outage broke the deal:\n%s", r.Summary())
	}
	assertClean(t, r)
	if r.Phases.DecisionEnd < 800 {
		t.Fatalf("decision at %d, before the outage even lifted", r.Phases.DecisionEnd)
	}
}

// TestTimelockOutageSpanningDeadlinesAborts: when the outage outlasts the
// voting window (Δ chosen too small relative to the attack), votes queued
// in the mempool execute after their deadlines and the deal aborts —
// safely: everyone is refunded.
func TestTimelockOutageSpanningDeadlinesAborts(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:     92,
		Protocol: party.ProtoTimelock,
		// Down from the start until past every deadline (t0 + N·Δ = 5000).
		World: SubstrateConfig{Outages: map[chain.ID]Outage{"ticketchain": {From: 5, Until: 5600}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.AllCommitted {
		t.Fatalf("deal committed through a deadline-spanning outage:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 {
		t.Fatalf("safety violated:\n%s", r.Summary())
	}
	// Every compliant deposit is back (refunds execute once the chain
	// returns).
	for _, p := range spec.Parties {
		for key, d := range r.FungibleDelta[p] {
			if d != 0 {
				t.Fatalf("party %s delta %+d at %s after DoS abort", p, d, key)
			}
		}
	}
	if st := r.Outcomes["ticketchain/ticket-escrow"]; st != escrow.StatusAborted {
		t.Fatalf("ticket escrow = %s, want aborted", st)
	}
}

// TestCBCOutageLocksAssetsForItsDuration: §9's threat against the CBC —
// "the CBC itself might be the target of a denial of service attack,
// causing a deal's assets to be locked up for the duration of the
// attack". Unlike the timelock case, the deal still settles atomically
// once the CBC returns.
func TestCBCOutageLocksAssetsForItsDuration(t *testing.T) {
	const outageEnd = sim.Time(9000)
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:      93,
		Protocol:  party.ProtoCBC,
		F:         1,
		CBCOutage: Outage{From: 30, Until: outageEnd},
		Patience:  30000, // parties outwait the attack
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("deal did not settle after the CBC returned:\n%s", r.Summary())
	}
	assertClean(t, r)
	if r.Phases.DecisionEnd < outageEnd {
		t.Fatalf("decision at %d, during the CBC outage (until %d)", r.Phases.DecisionEnd, outageEnd)
	}
}

// TestCBCOutageWithImpatientPartiesAbortsAtomically: if parties lose
// patience before the CBC returns, their abort votes queue and the deal
// aborts — everywhere, because the CBC never splits the decision.
func TestCBCOutageWithImpatientPartiesAbortsAtomically(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:      94,
		Protocol:  party.ProtoCBC,
		F:         1,
		CBCOutage: Outage{From: 30, Until: 9000},
		Patience:  3000, // gives up mid-outage
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.Atomic() {
		t.Fatalf("mixed outcome after CBC DoS:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
		t.Fatalf("violations:\n%s", r.Summary())
	}
	// The decision (commit or abort, depending on whether the startDeal
	// and votes beat the outage) lands only after the CBC returns.
	if r.Phases.DecisionEnd != 0 && r.Phases.DecisionEnd < 9000 {
		t.Fatalf("decision at %d, during the outage", r.Phases.DecisionEnd)
	}
}
