package timelock

import (
	"crypto/ed25519"
	"testing"
	"testing/quick"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

// TestTwoDealsAtOneContractSettleIndependently exercises the isolation
// role of escrow (§10): one escrow contract manages two concurrent deals
// whose outcomes diverge — D1 commits, D2 times out — without the
// bookkeeping bleeding across.
func TestTwoDealsAtOneContractSettleIndependently(t *testing.T) {
	w := newWorld(t)
	info := Info{T0: t0, Delta: delta}

	// D1: alice escrows 60 and pays bob.
	w.call("bank", "coin", token.MethodMint, token.MintArgs{To: "alice", Amount: 100})
	w.call("alice", "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
	if r := w.call("alice", "coin-escrow", escrow.MethodEscrow, escrow.EscrowArgs{
		Deal: "D1", Parties: parties, Info: info, Amount: 60,
	}); r.Err != nil {
		t.Fatal(r.Err)
	}
	w.call("alice", "coin-escrow", escrow.MethodTransfer,
		escrow.TransferArgs{Deal: "D1", To: "bob", Amount: 60})

	// D2: carol escrows 40 for a deal that will never gather votes.
	w.call("bank", "coin", token.MethodMint, token.MintArgs{To: "carol", Amount: 40})
	w.call("carol", "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
	if r := w.call("carol", "coin-escrow", escrow.MethodEscrow, escrow.EscrowArgs{
		Deal: "D2", Parties: parties, Info: info, Amount: 40,
	}); r.Err != nil {
		t.Fatal(r.Err)
	}

	// D1 gathers all three votes and commits.
	for _, p := range parties {
		v := sig.NewVote("D1", string(p), w.keys[string(p)])
		if r := w.call(p, "coin-escrow", MethodCommit, CommitArgs{Deal: "D1", Vote: v}); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if w.mgr.Deal("D1").Status != escrow.StatusCommitted {
		t.Fatal("D1 did not commit")
	}
	// D2 is untouched by D1's commit.
	if w.mgr.Deal("D2").Status != escrow.StatusActive {
		t.Fatalf("D2 status = %s, want still active", w.mgr.Deal("D2").Status)
	}
	if w.coin.BalanceOf("bob") != 60 {
		t.Fatalf("bob = %d, want 60 from D1 only", w.coin.BalanceOf("bob"))
	}

	// D2 times out and refunds carol; D1's commit is unaffected.
	if r := w.callAt(600, "carol", "coin-escrow", MethodRefund, RefundArgs{Deal: "D2"}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.coin.BalanceOf("carol") != 40 {
		t.Fatalf("carol = %d, want her 40 refunded", w.coin.BalanceOf("carol"))
	}
	if w.mgr.Deal("D1").Status != escrow.StatusCommitted {
		t.Fatal("D2's refund disturbed D1")
	}
	// A D1 vote replayed against D2 must not count (votes are bound to
	// deal ids through the signed message).
	if w.mgr.Votes("D2")["alice"] {
		t.Fatal("vote bookkeeping leaked across deals")
	}
}

// TestQuickVoteOrderIrrelevant: the contract releases iff it accepts all
// n votes in time, regardless of arrival order and forwarding paths.
func TestQuickVoteOrderIrrelevant(t *testing.T) {
	prop := func(permSeed uint64, pathBits uint8) bool {
		w := newWorldQuick()
		w.call("bank", "coin", token.MethodMint, token.MintArgs{To: "alice", Amount: 10})
		w.call("alice", "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
		if r := w.call("alice", "coin-escrow", escrow.MethodEscrow, escrow.EscrowArgs{
			Deal: "D", Parties: parties, Info: Info{T0: t0, Delta: delta}, Amount: 10,
		}); r.Err != nil {
			return false
		}
		// Pseudo-random vote order.
		order := []int{0, 1, 2}
		s := permSeed
		for i := 2; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		for k, idx := range order {
			voter := parties[idx]
			v := sig.NewVote("D", string(voter), w.keys[string(voter)])
			// Optionally route through a forwarder (one extra hop).
			sender := voter
			if pathBits&(1<<k) != 0 {
				fw := parties[(idx+1)%len(parties)]
				v = v.Forward(string(fw), w.keys[string(fw)])
				sender = fw
			}
			if r := w.call(sender, "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v}); r.Err != nil {
				return false
			}
		}
		return w.mgr.Deal("D").Status == escrow.StatusCommitted
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newWorldQuick is newWorld without the testing.T, for quick properties.
func newWorldQuick() *world {
	sched := sim.NewScheduler()
	keys := make(map[string]sig.KeyPair)
	pubs := make(map[string]ed25519.PublicKey)
	for _, p := range parties {
		kp := sig.GenerateKeyPair(string(p))
		keys[string(p)] = kp
		pubs[string(p)] = kp.Public
	}
	c := chain.New(chain.Config{
		ID:            "coinchain",
		BlockInterval: 10,
		Delays:        chain.SyncPolicy{Min: 1, Max: 3},
		Schedule:      gas.DefaultSchedule(),
		Keys:          pubs,
	}, sched, sim.NewRNG(7))
	w := &world{
		sched: sched,
		keys:  keys,
		c:     c,
		coin:  token.NewFungible("bank"),
		mgr:   New(escrow.NewBook("coin", deal.Fungible)),
	}
	c.MustDeploy("coin", w.coin)
	c.MustDeploy("coin-escrow", w.mgr)
	return w
}
