package pow

import (
	"errors"
	"fmt"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

var parties = []chain.Addr{"alice", "bob"}

type powWorld struct {
	sched *sim.Scheduler
	c     *chain.Chain
	coin  *token.Fungible
	mgr   *Manager
}

func newPowWorld(t *testing.T, k int) *powWorld {
	t.Helper()
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{
		ID: "coinchain", BlockInterval: 10,
		Delays:   chain.SyncPolicy{Min: 1, Max: 3},
		Schedule: gas.DefaultSchedule(),
	}, sched, sim.NewRNG(13))
	w := &powWorld{
		sched: sched, c: c,
		coin: token.NewFungible("bank"),
		mgr:  NewManager(escrow.NewBook("coin", deal.Fungible), k),
	}
	c.MustDeploy("coin", w.coin)
	c.MustDeploy("coin-escrow", w.mgr)
	return w
}

func (w *powWorld) call(sender chain.Addr, method string, args any) *chain.Receipt {
	var rcpt *chain.Receipt
	w.c.Submit(&chain.Tx{Sender: sender, Contract: "coin-escrow", Method: method,
		Args: args, Label: "test", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.sched.Run()
	return rcpt
}

func (w *powWorld) escrowCoins(t *testing.T, p chain.Addr, amount uint64) {
	t.Helper()
	w.c.Submit(&chain.Tx{Sender: "bank", Contract: "coin", Method: token.MethodMint,
		Label: "setup", Args: token.MintArgs{To: p, Amount: amount}})
	w.c.Submit(&chain.Tx{Sender: p, Contract: "coin", Method: token.MethodApprove,
		Label: "setup", Args: token.ApproveArgs{Operator: "coin-escrow", Allowed: true}})
	w.sched.Run()
	r := w.call(p, escrow.MethodEscrow, escrow.EscrowArgs{
		Deal: "D", Parties: parties, Info: "pow-info", Amount: amount})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

// buildProof mines a decisive block with the given votes plus k
// confirmations on a fresh chain.
func buildProof(votes []string, k int) Proof {
	c := NewChain()
	decisive := NewBlock(c.Best(), "miner", votes)
	if err := c.Extend(decisive); err != nil {
		panic(err)
	}
	var confs []*Block
	tip := decisive
	for i := 0; i < k; i++ {
		tip = NewBlock(tip, "miner", nil)
		confs = append(confs, tip)
	}
	return Proof{Decisive: decisive, Confirmations: confs}
}

func commitVotes() []string {
	return []string{
		VoteEntry("D", "alice", true),
		VoteEntry("D", "bob", true),
	}
}

func TestPowCommitWithConfirmations(t *testing.T) {
	w := newPowWorld(t, 3)
	w.escrowCoins(t, "alice", 100)
	w.call("alice", escrow.MethodTransfer, escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})

	r := w.call("bob", MethodCommitProof, ProofArgs{Deal: "D", Proof: buildProof(commitVotes(), 3)})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.coin.BalanceOf("bob") != 100 {
		t.Fatalf("bob = %d, want 100", w.coin.BalanceOf("bob"))
	}
}

func TestPowInsufficientConfirmationsRejected(t *testing.T) {
	w := newPowWorld(t, 4)
	w.escrowCoins(t, "alice", 100)
	r := w.call("bob", MethodCommitProof, ProofArgs{Deal: "D", Proof: buildProof(commitVotes(), 3)})
	if !errors.Is(r.Err, ErrConfirmations) {
		t.Fatalf("err = %v, want ErrConfirmations", r.Err)
	}
}

func TestPowPartialVotesNotDecisive(t *testing.T) {
	w := newPowWorld(t, 1)
	w.escrowCoins(t, "alice", 100)
	partial := []string{VoteEntry("D", "alice", true)} // bob missing
	r := w.call("bob", MethodCommitProof, ProofArgs{Deal: "D", Proof: buildProof(partial, 1)})
	if !errors.Is(r.Err, ErrNotDecisive) {
		t.Fatalf("err = %v, want ErrNotDecisive", r.Err)
	}
	// An abort claim with only commit votes is equally undecisive.
	r = w.call("alice", MethodAbortProof, ProofArgs{Deal: "D", Proof: buildProof(commitVotes(), 1)})
	if !errors.Is(r.Err, ErrNotDecisive) {
		t.Fatalf("err = %v, want ErrNotDecisive", r.Err)
	}
}

func TestPowOutsiderVotesIgnored(t *testing.T) {
	w := newPowWorld(t, 1)
	w.escrowCoins(t, "alice", 100)
	votes := append(commitVotes(), VoteEntry("D", "mallory", false)) // fake abort by outsider
	r := w.call("bob", MethodCommitProof, ProofArgs{Deal: "D", Proof: buildProof(votes, 1)})
	if r.Err != nil {
		t.Fatalf("outsider abort vote blocked a legit commit: %v", r.Err)
	}
}

func TestPowFakeAbortProofAccepted(t *testing.T) {
	// The §6.2 attack staged end to end against the contract. Alice
	// escrows coins owed to Bob. Publicly, everyone votes commit. But
	// Alice privately mined a fork containing her abort vote plus the
	// required confirmations. She presents the fake abort proof FIRST:
	// the contract cannot tell the forks apart, refunds her, and Bob's
	// legitimate commit proof bounces off the settled escrow. The
	// earlier proof was "contradicted by a later proof" — too late.
	w := newPowWorld(t, 2)
	w.escrowCoins(t, "alice", 100)
	w.call("alice", escrow.MethodTransfer, escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})

	fakeAbort := buildProof([]string{VoteEntry("D", "alice", false)}, 2)
	r := w.call("alice", MethodAbortProof, ProofArgs{Deal: "D", Proof: fakeAbort})
	if r.Err != nil {
		t.Fatalf("fake abort proof rejected (attack model broken): %v", r.Err)
	}
	if w.coin.BalanceOf("alice") != 100 {
		t.Fatal("alice did not get her refund from the fake proof")
	}

	legit := buildProof(commitVotes(), 2)
	r = w.call("bob", MethodCommitProof, ProofArgs{Deal: "D", Proof: legit})
	if !errors.Is(r.Err, escrow.ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive (escrow already settled)", r.Err)
	}
	if w.coin.BalanceOf("bob") != 0 {
		t.Fatal("bob was paid from a settled escrow")
	}
}

func TestPowDeepConfirmationsRaiseAttackCost(t *testing.T) {
	// The defense: requiring K confirmations forces the attacker to win
	// a K+1-block private race. The contract-side requirement and the
	// race simulation connect: at K=8 a 20% attacker succeeds rarely.
	p := SuccessProbability(77, RaceParams{Alpha: 0.2, VoteBlocks: 2, Confirmations: 8}, 4000)
	if p > 0.05 {
		t.Fatalf("8-conf attack success = %.3f for a 20%% attacker, want rare", p)
	}
	// And the contract indeed refuses proofs shallower than K.
	w := newPowWorld(t, 8)
	w.escrowCoins(t, "alice", 10)
	r := w.call("alice", MethodAbortProof, ProofArgs{
		Deal: "D", Proof: buildProof([]string{VoteEntry("D", "alice", false)}, 7)})
	if !errors.Is(r.Err, ErrConfirmations) {
		t.Fatalf("err = %v, want ErrConfirmations", r.Err)
	}
}

func TestPowNoSignatureVerifications(t *testing.T) {
	// PoW proofs are checked with hashes alone — the gas contrast to the
	// BFT manager's 2f+1 signature verifications.
	w := newPowWorld(t, 2)
	w.escrowCoins(t, "alice", 100)
	w.call("bob", MethodCommitProof, ProofArgs{Deal: "D", Proof: buildProof(commitVotes(), 2)})
	if n := w.c.Meter().Count(gas.OpSigVerify); n != 0 {
		t.Fatalf("pow manager performed %d signature verifications", n)
	}
}

func TestVoteEntryRoundTrip(t *testing.T) {
	e := VoteEntry("D1", "alice", true)
	dealID, party, commit, ok := parseVote(e)
	if !ok || dealID != "D1" || party != "alice" || !commit {
		t.Fatalf("round trip = (%s, %s, %v, %v)", dealID, party, commit, ok)
	}
	if _, _, _, ok := parseVote("garbage"); ok {
		t.Fatal("garbage parsed as vote")
	}
	if _, _, _, ok := parseVote("vote:D:p:maybe"); ok {
		t.Fatal("invalid vote kind accepted")
	}
}

// Vote entry format inside PoW blocks: "vote:<deal>:<party>:<commit|abort>".
func VoteEntry(dealID string, party chain.Addr, commit bool) string {
	v := "abort"
	if commit {
		v = "commit"
	}
	return fmt.Sprintf("vote:%s:%s:%s", dealID, party, v)
}
