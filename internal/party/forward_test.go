package party_test

import (
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/timelock"
)

// TestFrontRunnerSkipsNonPartyVote: a front-runner shown, in mempool
// gossip, a commit vote by a voter the deal does not name submits
// nothing, since every escrow rejects such a vote (timelock.ErrNotVoter);
// shown a party's vote, it races it to its incoming escrows.
func TestFrontRunnerSkipsNonPartyVote(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Protocol:  party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"alice": {party.FrontRun{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, c := w.Parties["alice"], w.Chains[spec.Transfers[0].Asset.Chain]
	// Until alice's incoming escrows are registered she holds any vote
	// rather than submit it, so run the deal that far first.
	w.Start()
	for !escrowsRegistered(w, spec, "alice") {
		if !w.Sched.Step() {
			t.Fatal("alice's incoming escrows were never registered")
		}
	}
	for _, tc := range []struct {
		voter  string
		submit bool
	}{{"mallory", false}, {"bob", true}} {
		vote := sig.NewVoteWith(c.Memo(), spec.ID, tc.voter, sig.GenerateKeyPair(tc.voter))
		ptx := chain.PendingTx{
			Chain: c.ID(), Sender: "carol", Method: timelock.MethodCommit, Label: party.LabelCommit,
			Args: timelock.CommitArgs{Deal: spec.ID, Vote: vote}, Topic: spec.ID,
		}
		if !alice.WantsGossip(ptx) {
			t.Fatalf("%s's vote: the front-runner's filter rejects it, so the test shows nothing", tc.voter)
		}
		pending := w.Sched.Pending()
		alice.OnGossip(ptx)
		if submitted := w.Sched.Pending() > pending; submitted != tc.submit {
			t.Errorf("%s's vote: front-runner submitted %t, want %t", tc.voter, submitted, tc.submit)
		}
	}
}

// escrowsRegistered reports whether every escrow delivering to party
// has the deal registered.
func escrowsRegistered(w *engine.World, spec *deal.Spec, party chain.Addr) bool {
	for _, in := range deal.NewPlan(spec).For(party).Incoming {
		res, err := w.Chains[in.Asset.Chain].Query(in.Asset.Escrow, escrow.MethodStatus, spec.ID)
		if err != nil || !res.(escrow.View).Exists() {
			return false
		}
	}
	return true
}

// TestForwardWaitsForIncomingEscrow: a vote a party sees before its
// incoming escrow is registered reaches that escrow once it is. Here a
// front-runner races bob's vote before the deal starts; a forward sent
// then is rejected (escrow: deal not registered), and had it marked the
// vote as sent, no later sighting would forward it again: alice's
// incoming escrow would refund while her outgoing one commits.
func TestForwardWaitsForIncomingEscrow(t *testing.T) {
	spec := deal.RingSpec(3, 2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Protocol:  party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"p00": {party.FrontRun{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if escrowsRegistered(w, spec, "p00") {
		t.Fatal("p00's incoming escrow is registered before the deal starts, so the test shows nothing")
	}
	p00, c := w.Parties["p00"], w.Chains[spec.Transfers[0].Asset.Chain]
	vote := sig.NewVoteWith(c.Memo(), spec.ID, "p01", w.Keys("p01"))
	p00.OnGossip(chain.PendingTx{
		Chain: c.ID(), Sender: "p01", Method: timelock.MethodCommit, Label: party.LabelCommit,
		Args: timelock.CommitArgs{Deal: spec.ID, Vote: vote}, Topic: spec.ID,
	})
	r := w.Run()
	if len(r.SafetyViolations) > 0 || !r.AllCommitted {
		t.Fatalf("deal did not commit everywhere: %s %v", r.Summary(), r.SafetyViolations)
	}
}
