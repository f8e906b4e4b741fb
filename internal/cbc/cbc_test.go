package cbc

import (
	"errors"
	"slices"
	"testing"

	"xdeal/internal/bft"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

var parties = []chain.Addr{"alice", "bob", "carol"}

type world struct {
	sched *sim.Scheduler
	cbc   *CBC
	c     *chain.Chain
	coin  *token.Fungible
	mgr   *Manager
}

func newWorld(t *testing.T, f int) *world {
	t.Helper()
	return newWorldWith(f, NewManager(escrow.NewBook("coin", deal.Fungible)))
}

// newWorldWith is newWorld with mgr as the coin's escrow contract.
func newWorldWith(f int, mgr *Manager) *world {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(11)
	service := New(Config{
		Tag: "cbc", F: f, BlockInterval: 10,
		Delays:   chain.SyncPolicy{Min: 1, Max: 3},
		Schedule: gas.DefaultSchedule(),
	}, sched, rng)
	return newWorldOn(sched, rng, service, "coinchain", nil, mgr)
}

// newWorldOn hosts one more asset chain, with its own coin and the CBC
// escrow manager mgr, beside an existing CBC service.
func newWorldOn(sched *sim.Scheduler, rng *sim.RNG, service *CBC, id chain.ID, memo *sig.Memo, mgr *Manager) *world {
	w := &world{
		sched: sched,
		cbc:   service,
		coin:  token.NewFungible("bank"),
	}
	w.c = chain.New(chain.Config{
		ID: id, BlockInterval: 10,
		Delays:     chain.SyncPolicy{Min: 1, Max: 3},
		Schedule:   gas.DefaultSchedule(),
		VerifyMemo: memo,
	}, sched, rng)
	w.mgr = mgr
	w.c.MustDeploy("coin", w.coin)
	w.c.MustDeploy("coin-escrow", w.mgr)
	return w
}

func (w *world) call(sender, contract chain.Addr, method string, args any) *chain.Receipt {
	var rcpt *chain.Receipt
	w.c.Submit(&chain.Tx{Sender: sender, Contract: contract, Method: method, Args: args,
		Label: "test", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.sched.Run()
	return rcpt
}

// startDeal publishes the deal start and returns its definitive hash.
func (w *world) startDeal(t *testing.T, id string) [32]byte {
	t.Helper()
	w.cbc.Publish(Entry{Kind: EntryStartDeal, Deal: id, Party: parties[0], Parties: parties})
	w.sched.Run()
	h, ok := w.cbc.StartHash(id)
	if !ok {
		t.Fatalf("deal %s did not start", id)
	}
	return h
}

func (w *world) voteAll(id string, h [32]byte) {
	for _, p := range parties {
		w.cbc.Publish(Entry{Kind: EntryCommit, Deal: id, Party: p, Hash: h})
	}
	w.sched.Run()
}

// escrowCoins funds p and escrows amount into the CBC manager.
func (w *world) escrowCoins(t *testing.T, p chain.Addr, id string, h [32]byte, amount uint64) {
	t.Helper()
	w.call("bank", "coin", token.MethodMint, token.MintArgs{To: p, Amount: amount})
	w.call(p, "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
	r := w.call(p, "coin-escrow", escrow.MethodEscrow, escrow.EscrowArgs{
		Deal: id, Parties: parties,
		Info:   Info{StartHash: h, Committee: w.cbc.InitialCommittee()},
		Amount: amount,
	})
	if r.Err != nil {
		t.Fatalf("escrow failed: %v", r.Err)
	}
}

func TestDealCommitsWhenAllVoteCommit(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.voteAll("D", h)
	st := w.cbc.Deal("D")
	if st.Status != escrow.StatusCommitted {
		t.Fatalf("status = %s, want committed", st.Status)
	}
}

func TestDealAbortsOnEarlyAbort(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: "alice", Hash: h})
	w.sched.Run()
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "bob", Hash: h})
	w.sched.Run()
	w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: "carol", Hash: h})
	w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: "bob", Hash: h})
	w.sched.Run()
	if got := w.cbc.Deal("D").Status; got != escrow.StatusAborted {
		t.Fatalf("status = %s, want aborted (abort preceded full commit)", got)
	}
}

func TestAbortAfterDecisionIgnored(t *testing.T) {
	// Once every party has committed, a later abort (rescind attempt)
	// cannot flip the outcome.
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.voteAll("D", h)
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "alice", Hash: h})
	w.sched.Run()
	if got := w.cbc.Deal("D").Status; got != escrow.StatusCommitted {
		t.Fatalf("status = %s, want committed to stand", got)
	}
}

func TestRescindBeforeFullCommitAborts(t *testing.T) {
	// A party may rescind its own earlier commit by voting abort; if the
	// deal is not yet fully committed, it aborts (§6).
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: "alice", Hash: h})
	w.sched.Run()
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "alice", Hash: h})
	w.sched.Run()
	if got := w.cbc.Deal("D").Status; got != escrow.StatusAborted {
		t.Fatalf("status = %s, want aborted", got)
	}
}

func TestVotesValidatedByValidators(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	// Outsider vote and wrong-hash vote are dropped.
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "mallory", Hash: h})
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "alice", Hash: [32]byte{1}})
	w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "ghost", Party: "alice", Hash: h})
	w.sched.Run()
	if got := w.cbc.Deal("D").Status; got != escrow.StatusActive {
		t.Fatalf("status = %s, want still active (bad votes dropped)", got)
	}
	w.voteAll("D", h)
	if got := w.cbc.Deal("D").Status; got != escrow.StatusCommitted {
		t.Fatalf("status = %s, want committed", got)
	}
}

func TestEarliestStartDealIsDefinitive(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	// A second startDeal with a different plist does not change state.
	w.cbc.Publish(Entry{Kind: EntryStartDeal, Deal: "D", Party: "mallory",
		Parties: []chain.Addr{"mallory", "alice"}})
	w.sched.Run()
	h2, _ := w.cbc.StartHash("D")
	if h2 != h {
		t.Fatal("later startDeal displaced the definitive one")
	}
	if len(w.cbc.Deal("D").Parties) != 3 {
		t.Fatal("plist overwritten")
	}
}

func TestStatusProofUndecidedFails(t *testing.T) {
	w := newWorld(t, 1)
	w.startDeal(t, "D")
	if _, err := w.cbc.StatusProofFor("D"); !errors.Is(err, ErrUndecided) {
		t.Fatalf("err = %v, want ErrUndecided", err)
	}
	if _, err := w.cbc.StatusProofFor("ghost"); !errors.Is(err, ErrUnknownDeal) {
		t.Fatalf("err = %v, want ErrUnknownDeal", err)
	}
}

func TestCommitViaStatusProof(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.call("alice", "coin-escrow", escrow.MethodTransfer,
		escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})
	w.voteAll("D", h)

	proof, err := w.cbc.StatusProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	r := w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.coin.BalanceOf("bob") != 100 {
		t.Fatalf("bob = %d, want 100", w.coin.BalanceOf("bob"))
	}
	if w.mgr.Deal("D").Status != escrow.StatusCommitted {
		t.Fatal("escrow not committed")
	}
}

func TestAbortViaStatusProof(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.call("alice", "coin-escrow", escrow.MethodTransfer,
		escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "carol", Hash: h})
	w.sched.Run()

	proof, err := w.cbc.StatusProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	r := w.call("alice", "coin-escrow", MethodAbortProof, ProofArgs{Deal: "D", Blocks: nil, Status: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.coin.BalanceOf("alice") != 100 {
		t.Fatalf("alice = %d, want refund 100", w.coin.BalanceOf("alice"))
	}
}

func TestStatusProofWrongOutcomeRejected(t *testing.T) {
	// A proof of commit cannot be presented as a proof of abort.
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.voteAll("D", h)
	proof, _ := w.cbc.StatusProofFor("D")
	r := w.call("alice", "coin-escrow", MethodAbortProof, ProofArgs{Deal: "D", Status: &proof})
	if r.Err == nil {
		t.Fatal("commit proof accepted as abort proof")
	}
}

func TestStatusProofGasIsQuorumVerifications(t *testing.T) {
	// Figure 4 / Figure 6: commit costs 2f+1 signature verifications per
	// contract (no reconfigurations).
	f := 2
	w := newWorld(t, f)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.voteAll("D", h)
	proof, _ := w.cbc.StatusProofFor("D")

	before := w.c.Meter().Snapshot()
	r := w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	delta := w.c.Meter().Snapshot().Sub(before)
	if got := delta.Counts[gas.OpSigVerify]; got != uint64(2*f+1) {
		t.Fatalf("sig verifications = %d, want 2f+1 = %d", got, 2*f+1)
	}
}

func TestUnderQuorumCertificateRejected(t *testing.T) {
	// f corrupt validators cannot fake an abort certificate.
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.voteAll("D", h) // deal committed

	// Rebuild the known committee's signers (deterministic seeds) and
	// use only f of them to forge an abort statement.
	_, signers := bft.NewCommittee("cbc", 0, 1)
	stmt := StatementBytes("D", h, escrow.StatusAborted)
	fake := StatusProof{
		Deal: "D", StartHash: h, Status: escrow.StatusAborted,
		Cert: bft.MakeCertificate(stmt, 0, signers[:1]),
	}
	r := w.call("mallory", "coin-escrow", MethodAbortProof, ProofArgs{Deal: "D", Status: &fake})
	if r.Err == nil {
		t.Fatal("under-quorum certificate accepted")
	}
}

func TestForeignCommitteeRejected(t *testing.T) {
	// An attacker spins up its own 3f+1 validators and certifies an
	// abort; the contract only trusts the committee given at escrow.
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.voteAll("D", h)

	_, evil := bft.NewCommittee("evil", 0, 1)
	stmt := StatementBytes("D", h, escrow.StatusAborted)
	fake := StatusProof{
		Deal: "D", StartHash: h, Status: escrow.StatusAborted,
		Cert: bft.MakeCertificate(stmt, 0, evil[:3]),
	}
	r := w.call("mallory", "coin-escrow", MethodAbortProof, ProofArgs{Deal: "D", Status: &fake})
	if r.Err == nil {
		t.Fatal("foreign committee certificate accepted")
	}
}

func TestStatusProofAfterReconfiguration(t *testing.T) {
	// The committee changes twice; the proof carries the handover chain
	// and verification costs (k+1)(2f+1) signatures.
	f := 1
	w := newWorld(t, f)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.cbc.Reconfigure()
	w.cbc.Reconfigure()
	w.voteAll("D", h)

	proof, err := w.cbc.StatusProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	before := w.c.Meter().Snapshot()
	r := w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	delta := w.c.Meter().Snapshot().Sub(before)
	want := uint64(3 * (2*f + 1)) // k=2 reconfigs + final cert
	if got := delta.Counts[gas.OpSigVerify]; got != want {
		t.Fatalf("sig verifications = %d, want (k+1)(2f+1) = %d", got, want)
	}
}

func TestTamperedReconfigChainRejected(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.cbc.Reconfigure()
	w.voteAll("D", h)
	proof, _ := w.cbc.StatusProofFor("D")
	// Drop the reconfig chain: the final cert's epoch no longer matches.
	proof.Reconfigs = nil
	r := w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof})
	if r.Err == nil {
		t.Fatal("proof with missing reconfig chain accepted")
	}
}

func TestCommitViaBlockProof(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.call("alice", "coin-escrow", escrow.MethodTransfer,
		escrow.TransferArgs{Deal: "D", To: "carol", Amount: 40})
	w.voteAll("D", h)

	proof, err := w.cbc.BlockProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	r := w.call("carol", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Blocks: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.coin.BalanceOf("carol") != 40 || w.coin.BalanceOf("alice") != 60 {
		t.Fatalf("balances carol=%d alice=%d, want 40/60",
			w.coin.BalanceOf("carol"), w.coin.BalanceOf("alice"))
	}
}

func TestAbortViaBlockProof(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: "alice", Hash: h})
	w.sched.Run()
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "bob", Hash: h})
	w.sched.Run()

	proof, err := w.cbc.BlockProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	r := w.call("alice", "coin-escrow", MethodAbortProof, ProofArgs{Deal: "D", Blocks: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.coin.BalanceOf("alice") != 100 {
		t.Fatal("refund missing")
	}
}

func TestBlockProofGasScalesWithBlocks(t *testing.T) {
	// The ablation's point: the naive proof costs a quorum check per
	// block, far more than the status certificate when the span is long.
	f := 1
	w := newWorld(t, f)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	// Spread the votes over separate blocks.
	for _, p := range parties {
		w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: p, Hash: h})
		w.sched.Run()
	}
	proof, _ := w.cbc.BlockProofFor("D")
	if len(proof.Blocks) < 3 {
		t.Fatalf("expected multi-block span, got %d", len(proof.Blocks))
	}
	before := w.c.Meter().Snapshot()
	r := w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Blocks: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	delta := w.c.Meter().Snapshot().Sub(before)
	want := uint64(len(proof.Blocks) * (2*f + 1))
	if got := delta.Counts[gas.OpSigVerify]; got != want {
		t.Fatalf("sig verifications = %d, want blocks×quorum = %d", got, want)
	}
}

func TestTruncatedBlockProofRejected(t *testing.T) {
	// Hiding the block with the abort vote must not yield a commit proof.
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "bob", Hash: h})
	w.sched.Run()
	w.voteAll("D", h) // late commits, logged but not decisive

	proof, _ := w.cbc.BlockProofFor("D")
	// Forge a "commit" claim from the span (replay will show the abort).
	r := w.call("mallory", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Blocks: &proof})
	if !errorContains(r.Err, ErrReplayConflict) && r.Err == nil {
		t.Fatalf("truncated/forged proof accepted: %v", r.Err)
	}
}

func TestBlockProofWithGapRejected(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	for _, p := range parties {
		w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: p, Hash: h})
		w.sched.Run()
	}
	proof, _ := w.cbc.BlockProofFor("D")
	if len(proof.Blocks) < 3 {
		t.Skip("need multi-block span")
	}
	// Remove a middle block: the hash chain breaks. Proofs share the
	// service's span, so the forgery is built in a copy.
	proof.Blocks = append(append([]*Block(nil), proof.Blocks[:1]...), proof.Blocks[2:]...)
	r := w.call("mallory", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Blocks: &proof})
	if r.Err == nil {
		t.Fatal("gapped block proof accepted")
	}
}

func TestBlockProofSpanStartingAtDuplicateRejected(t *testing.T) {
	// An adversary re-publishes startDeal later and builds a span from
	// the duplicate, hiding an early abort. The position-derived hash
	// exposes the trick.
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.cbc.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "bob", Hash: h})
	w.sched.Run()
	// Duplicate startDeal, then commits (which are non-decisive).
	w.cbc.Publish(Entry{Kind: EntryStartDeal, Deal: "D", Party: "alice", Parties: parties})
	w.sched.Run()
	w.voteAll("D", h)

	// The doctored span is the service's own block log from the
	// duplicate onward, every block certified by its committee: a span
	// whose only flaw is where it starts. BlockProofFor cannot build it,
	// since it stops at the abort that decided the deal.
	full, _ := w.cbc.BlockProofFor("D")
	first := full.Blocks[0].Height
	var span []*Block
	for i, b := range w.cbc.blocks {
		isStart := func(e Entry) bool { return e.Kind == EntryStartDeal && e.Deal == "D" }
		if b.Height > first && slices.ContainsFunc(b.Entries, isStart) {
			span = w.cbc.blocks[i:]
			break
		}
	}
	if len(span) == 0 {
		t.Fatal("the duplicate startDeal shares the definitive one's block: the span cannot start at it")
	}
	for _, b := range span {
		w.cbc.certify(b)
	}
	doctored := BlockProof{Deal: "D", Blocks: span, Reconfigs: full.Reconfigs}
	r := w.call("mallory", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Blocks: &doctored})
	if !errors.Is(r.Err, ErrHashMismatch) {
		t.Fatalf("span starting at the duplicate startDeal: err = %v, want ErrHashMismatch", r.Err)
	}
}

func TestCensorshipPreventsDecision(t *testing.T) {
	// §9: validators censoring a party's votes keep the deal undecided
	// (until someone votes abort) — the trust cost of the CBC.
	sched := sim.NewScheduler()
	rng := sim.NewRNG(3)
	c := New(Config{
		Tag: "cbc", F: 1, BlockInterval: 10,
		Delays:   chain.SyncPolicy{Min: 1, Max: 3},
		Schedule: gas.DefaultSchedule(),
		Censor:   map[chain.Addr]bool{"carol": true},
	}, sched, rng)
	c.Publish(Entry{Kind: EntryStartDeal, Deal: "D", Party: "alice", Parties: parties})
	sched.Run()
	h, _ := c.StartHash("D")
	for _, p := range parties {
		c.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: p, Hash: h})
	}
	sched.Run()
	if got := c.Deal("D").Status; got != escrow.StatusActive {
		t.Fatalf("status = %s, want active (carol censored)", got)
	}
	// Alice times out and rescinds: the deal aborts everywhere — the CBC
	// still guarantees atomicity, only liveness suffered.
	c.Publish(Entry{Kind: EntryAbort, Deal: "D", Party: "alice", Hash: h})
	sched.Run()
	if got := c.Deal("D").Status; got != escrow.StatusAborted {
		t.Fatalf("status = %s, want aborted", got)
	}
}

func TestProofReplayAcrossDealsRejected(t *testing.T) {
	// A commit proof for D1 must not release D2's escrow.
	w := newWorld(t, 1)
	h1 := w.startDeal(t, "D1")
	h2 := w.startDeal(t, "D2")
	w.escrowCoins(t, "alice", "D2", h2, 100)
	w.voteAll("D1", h1)
	proof, _ := w.cbc.StatusProofFor("D1")
	r := w.call("mallory", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D2", Status: &proof})
	if r.Err == nil {
		t.Fatal("cross-deal proof replay accepted")
	}
}

func TestNoProofRejected(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 10)
	r := w.call("alice", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D"})
	if !errors.Is(r.Err, ErrNoProof) {
		t.Fatalf("err = %v, want ErrNoProof", r.Err)
	}
}

func TestFinalizeOnceOnly(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.voteAll("D", h)
	proof, _ := w.cbc.StatusProofFor("D")
	if r := w.call("alice", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof}); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := w.call("alice", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof})
	if !errors.Is(r.Err, escrow.ErrNotActive) {
		t.Fatalf("second finalize err = %v, want ErrNotActive", r.Err)
	}
}

func errorContains(err, target error) bool {
	return err != nil && errors.Is(err, target)
}
