package party_test

import (
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
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
		Behaviors: map[chain.Addr]party.Behavior{"alice": {FrontRun: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, c := w.Parties["alice"], w.Chains[spec.Transfers[0].Asset.Chain]
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
