package engine

import (
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/party"
)

// runBroker executes the paper's example deal with the given options.
func runBroker(t *testing.T, opts Options) *Result {
	t.Helper()
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w.Run()
}

// TestBuildRejectsInertBehavior: a Behavior a party could not act on is
// a configuration error, not a silently compliant deviant.
func TestBuildRejectsInertBehavior(t *testing.T) {
	_, err := Build(deal.BrokerSpec(2000, 1000), Options{
		Behaviors: map[chain.Addr]party.Behavior{"bob": {OfflineFrom: 1500}},
	})
	if err == nil || !strings.Contains(err.Error(), "party bob: OfflineFrom 1500 needs a later OfflineUntil") {
		t.Fatalf("Build = %v, want the inert offline window rejected", err)
	}
}

func TestBrokerDealCommitsTimelock(t *testing.T) {
	r := runBroker(t, Options{Seed: 1, Protocol: party.ProtoTimelock})
	if !r.AllCommitted {
		t.Fatalf("deal did not commit everywhere:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
		t.Fatalf("violations:\n%s", r.Summary())
	}
	// Figure 1 settlement: Alice nets +1 coin (commission), Bob +100,
	// Carol −101; Carol owns the ticket.
	coinKey := "coinchain/coin-escrow"
	if d := r.FungibleDelta["alice"][coinKey]; d != 1 {
		t.Fatalf("alice commission = %+d, want +1\n%s", d, r.Summary())
	}
	if d := r.FungibleDelta["bob"][coinKey]; d != 100 {
		t.Fatalf("bob proceeds = %+d, want +100", d)
	}
	if d := r.FungibleDelta["carol"][coinKey]; d != -101 {
		t.Fatalf("carol payment = %+d, want -101", d)
	}
	if owner := r.FinalTokenOwners["ticketchain/ticket-escrow"]["seat-1A"]; owner != "carol" {
		t.Fatalf("ticket owner = %s, want carol", owner)
	}
}

func TestBrokerDealCommitsCBC(t *testing.T) {
	r := runBroker(t, Options{Seed: 2, Protocol: party.ProtoCBC, F: 1})
	if !r.AllCommitted {
		t.Fatalf("deal did not commit everywhere:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
		t.Fatalf("violations:\n%s", r.Summary())
	}
	if owner := r.FinalTokenOwners["ticketchain/ticket-escrow"]["seat-1A"]; owner != "carol" {
		t.Fatalf("ticket owner = %s, want carol", owner)
	}
}

func TestBrokerAbortsWhenBobSkipsEscrowTimelock(t *testing.T) {
	r := runBroker(t, Options{Seed: 3, Protocol: party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"bob": {SkipEscrow: true}}})
	if r.AllCommitted {
		t.Fatalf("deal committed despite missing tickets:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 {
		t.Fatalf("safety violated:\n%s", r.Summary())
	}
	if len(r.LivenessViolations) > 0 {
		t.Fatalf("compliant assets locked:\n%s", r.Summary())
	}
	// Nobody gained or lost coins.
	for _, p := range r.Spec.Parties {
		if r.Compliant[p] {
			for k, d := range r.FungibleDelta[p] {
				if d != 0 {
					t.Fatalf("party %s delta %+d at %s after failed deal", p, d, k)
				}
			}
		}
	}
}

func TestBrokerAbortsWhenCarolNeverVotesTimelock(t *testing.T) {
	r := runBroker(t, Options{Seed: 4, Protocol: party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"carol": {SkipVoting: true}}})
	if r.AllCommitted {
		t.Fatal("deal committed without carol's vote")
	}
	if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
		t.Fatalf("violations:\n%s", r.Summary())
	}
}

func TestBrokerAbortsWhenBobAbortsCBC(t *testing.T) {
	r := runBroker(t, Options{Seed: 5, Protocol: party.ProtoCBC, F: 1,
		Behaviors: map[chain.Addr]party.Behavior{"bob": {AbortImmediately: true}}})
	if !r.AllAborted {
		t.Fatalf("expected clean abort everywhere:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
		t.Fatalf("violations:\n%s", r.Summary())
	}
}
