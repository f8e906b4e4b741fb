package timelock

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

const (
	t0    = sim.Time(200)
	delta = sim.Duration(100)
)

var parties = []chain.Addr{"alice", "bob", "carol"}

type world struct {
	c     *chain.Chain
	sched *sim.Scheduler
	coin  *token.Fungible
	mgr   *Manager
	keys  map[string]sig.KeyPair
	pubs  map[string]ed25519.PublicKey
	memo  *sig.Memo // the chain verifies, and vote signs, through it
}

func newWorld(t *testing.T) *world { return newWorldIn(t, nil) }

// newWorldIn is newWorld under memo's signature scheme: nil for ed25519,
// a memo for a simulated world's facts.
func newWorldIn(t *testing.T, memo *sig.Memo) *world {
	t.Helper()
	return newWorldWith(memo, New(escrow.NewBook("coin", deal.Fungible)))
}

// newWorldWith is newWorldIn with mgr as the escrow contract.
func newWorldWith(memo *sig.Memo, mgr *Manager) *world {
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
		VerifyMemo:    memo,
	}, sched, sim.NewRNG(7))
	w := &world{
		c:     c,
		sched: sched,
		coin:  token.NewFungible("bank"),
		mgr:   mgr,
		keys:  keys,
		pubs:  pubs,
		memo:  memo,
	}
	c.MustDeploy("coin", w.coin)
	c.MustDeploy("coin-escrow", w.mgr)
	return w
}

func (w *world) call(sender, contract chain.Addr, method string, args any) *chain.Receipt {
	var rcpt *chain.Receipt
	w.c.Submit(&chain.Tx{Sender: sender, Contract: contract, Method: method, Args: args,
		Label: "test", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.sched.Run()
	return rcpt
}

// callAt schedules the call for virtual time at, then runs to completion.
func (w *world) callAt(at sim.Time, sender, contract chain.Addr, method string, args any) *chain.Receipt {
	var rcpt *chain.Receipt
	w.sched.At(at, func() {
		w.c.Submit(&chain.Tx{Sender: sender, Contract: contract, Method: method, Args: args,
			Label: "test", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	})
	w.sched.Run()
	return rcpt
}

func (w *world) fundAndEscrow(t *testing.T, p chain.Addr, amount uint64) {
	t.Helper()
	w.call("bank", "coin", token.MethodMint, token.MintArgs{To: p, Amount: amount})
	w.call(p, "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
	r := w.call(p, "coin-escrow", escrow.MethodEscrow, escrow.EscrowArgs{
		Deal: "D", Parties: parties, Info: Info{T0: t0, Delta: delta}, Amount: amount,
	})
	if r.Err != nil {
		t.Fatalf("escrow by %s failed: %v", p, r.Err)
	}
}

func (w *world) vote(p chain.Addr) sig.PathSig {
	return sig.NewVoteWith(w.memo, "D", string(p), w.keys[string(p)])
}

// schemes runs check in a world of each signature scheme.
func schemes(t *testing.T, check func(t *testing.T, w *world)) {
	t.Run("ed25519", func(t *testing.T) { check(t, newWorldIn(t, nil)) })
	t.Run("facts", func(t *testing.T) { check(t, newWorldIn(t, sig.NewMemo())) })
}

func TestUnanimousDirectVotesRelease(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	// Alice pays Bob 100 tentatively.
	w.call("alice", "coin-escrow", escrow.MethodTransfer,
		escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})

	for _, p := range parties {
		r := w.call(p, "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote(p)})
		if r.Err != nil {
			t.Fatalf("vote by %s rejected: %v", p, r.Err)
		}
	}
	if w.mgr.Deal("D").Status != escrow.StatusCommitted {
		t.Fatalf("status = %s, want committed", w.mgr.Deal("D").Status)
	}
	if w.coin.BalanceOf("bob") != 100 {
		t.Fatalf("bob = %d, want 100", w.coin.BalanceOf("bob"))
	}
}

func TestPartialVotesDoNotRelease(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	w.call("alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("alice")})
	w.call("bob", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("bob")})
	if w.mgr.Deal("D").Status != escrow.StatusActive {
		t.Fatal("released without carol's vote")
	}
}

func TestForwardedVoteAccepted(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	// Carol's vote forwarded by Bob: path length 2.
	v := w.vote("carol").Forward("bob", w.keys["bob"])
	r := w.call("bob", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v})
	if r.Err != nil {
		t.Fatalf("forwarded vote rejected: %v", r.Err)
	}
	if !w.mgr.Votes("D")["carol"] {
		t.Fatal("carol's vote not recorded")
	}
}

func TestVoteTimeoutScalesWithPathLength(t *testing.T) {
	// A direct vote must arrive before t0 + Δ = 300; a 2-hop vote before
	// t0 + 2Δ = 400.
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)

	// Direct vote at 330: late.
	r := w.callAt(330, "alice", "coin-escrow", MethodCommit,
		CommitArgs{Deal: "D", Vote: w.vote("alice")})
	if !errors.Is(r.Err, ErrVoteTooLate) {
		t.Fatalf("late direct vote err = %v, want ErrVoteTooLate", r.Err)
	}
	// Forwarded (2-hop) vote at the same instant: still in time.
	v := w.vote("carol").Forward("alice", w.keys["alice"])
	r = w.callAt(331, "alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v})
	if r.Err != nil {
		t.Fatalf("2-hop vote at 331 rejected: %v", r.Err)
	}
	// 2-hop vote at 420: late.
	v2 := w.vote("bob").Forward("alice", w.keys["alice"])
	r = w.callAt(420, "alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v2})
	if !errors.Is(r.Err, ErrVoteTooLate) {
		t.Fatalf("late 2-hop vote err = %v, want ErrVoteTooLate", r.Err)
	}
}

func TestFixedTimeoutRejectsForwardedVotes(t *testing.T) {
	// The naive rule (ablation): every vote must arrive before t0 + Δ,
	// so a forwarded vote arriving in (t0+Δ, t0+2Δ) is wrongly rejected.
	w := newWorld(t)
	w.mgr.FixedTimeout = true
	w.fundAndEscrow(t, "alice", 100)
	v := w.vote("carol").Forward("alice", w.keys["alice"])
	r := w.callAt(331, "alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v})
	if !errors.Is(r.Err, ErrVoteTooLate) {
		t.Fatalf("err = %v, want ErrVoteTooLate under fixed timeouts", r.Err)
	}
}

func TestDuplicateVoteRejected(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	w.call("alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("alice")})
	r := w.call("bob", "coin-escrow", MethodCommit,
		CommitArgs{Deal: "D", Vote: w.vote("alice").Forward("bob", w.keys["bob"])})
	if !errors.Is(r.Err, ErrDuplicateVote) {
		t.Fatalf("err = %v, want ErrDuplicateVote", r.Err)
	}
}

func TestOutsiderVoteRejected(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	mallory := sig.GenerateKeyPair("mallory")
	v := sig.NewVote("D", "mallory", mallory)
	r := w.call("mallory", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v})
	if !errors.Is(r.Err, ErrNotVoter) {
		t.Fatalf("err = %v, want ErrNotVoter", r.Err)
	}
}

func TestOutsiderSignerRejected(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	mallory := sig.GenerateKeyPair("mallory")
	v := w.vote("alice").Forward("mallory", mallory)
	r := w.call("mallory", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v})
	if !errors.Is(r.Err, ErrSignerNotParty) {
		t.Fatalf("err = %v, want ErrSignerNotParty", r.Err)
	}
}

func TestForgedVoteRejected(t *testing.T) {
	schemes(t, func(t *testing.T, w *world) {
		// Bob fabricates "carol's vote": once by signing it himself, once
		// by relabelling his own genuine vote as hers.
		w.fundAndEscrow(t, "alice", 100)
		own := w.vote("bob")
		for name, forged := range map[string]sig.PathSig{
			"signed by bob": {
				Deal: "D", Voter: "carol",
				Hops: []sig.Hop{{Signer: "carol", Sig: [64]byte(w.memo.Sign(w.keys["bob"], []byte("fake")))}},
			},
			"bob's vote relabelled": {
				Deal: "D", Voter: "carol",
				Hops: []sig.Hop{{Signer: "carol", Sig: own.Hops[0].Sig}},
			},
		} {
			r := w.call("bob", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: forged})
			if r.Err == nil {
				t.Fatalf("%s: forged vote accepted", name)
			}
			if w.mgr.Votes("D")["carol"] {
				t.Fatalf("%s: forged vote recorded", name)
			}
		}
	})
}

func TestCrossDealReplayRejected(t *testing.T) {
	// A vote for D cannot be replayed for D2 (§5: D is effectively a
	// nonce). Register D2 and replay alice's D-vote against it.
	schemes(t, testCrossDealReplay)
}

func testCrossDealReplay(t *testing.T, w *world) {
	w.fundAndEscrow(t, "alice", 50)
	w.call("bank", "coin", token.MethodMint, token.MintArgs{To: "bob", Amount: 10})
	w.call("bob", "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
	r := w.call("bob", "coin-escrow", escrow.MethodEscrow, escrow.EscrowArgs{
		Deal: "D2", Parties: parties, Info: Info{T0: t0, Delta: delta}, Amount: 10,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	stolen := w.vote("alice") // signed for deal D
	stolen.Deal = "D2"
	r = w.call("mallory", "coin-escrow", MethodCommit, CommitArgs{Deal: "D2", Vote: stolen})
	if r.Err == nil {
		t.Fatal("cross-deal replay accepted")
	}
	// And a vote whose embedded deal disagrees with the call is rejected
	// outright.
	r = w.call("mallory", "coin-escrow", MethodCommit, CommitArgs{Deal: "D2", Vote: w.vote("alice")})
	if !errors.Is(r.Err, ErrWrongDeal) {
		t.Fatalf("err = %v, want ErrWrongDeal", r.Err)
	}
}

func TestRefundAfterDeadline(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	w.call("alice", "coin-escrow", escrow.MethodTransfer,
		escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})

	// Too early: t0 + N·Δ = 200 + 3·100 = 500.
	r := w.callAt(400, "alice", "coin-escrow", MethodRefund, RefundArgs{Deal: "D"})
	if !errors.Is(r.Err, ErrTooEarlyRefund) {
		t.Fatalf("early refund err = %v, want ErrTooEarlyRefund", r.Err)
	}
	// After the deadline the refund succeeds and follows the A map.
	r = w.callAt(520, "alice", "coin-escrow", MethodRefund, RefundArgs{Deal: "D"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.coin.BalanceOf("alice") != 100 {
		t.Fatalf("alice = %d, want full refund of 100", w.coin.BalanceOf("alice"))
	}
	if w.coin.BalanceOf("bob") != 0 {
		t.Fatal("bob received funds from aborted deal")
	}
	if w.mgr.Deal("D").Status != escrow.StatusAborted {
		t.Fatal("status not aborted")
	}
}

func TestVotesRejectedAfterRefund(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	w.callAt(520, "alice", "coin-escrow", MethodRefund, RefundArgs{Deal: "D"})
	r := w.call("alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("alice")})
	if !errors.Is(r.Err, escrow.ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", r.Err)
	}
}

func TestRefundRejectedAfterCommit(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	for _, p := range parties {
		w.call(p, "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote(p)})
	}
	r := w.callAt(600, "x", "coin-escrow", MethodRefund, RefundArgs{Deal: "D"})
	if !errors.Is(r.Err, escrow.ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", r.Err)
	}
}

func TestLastMinuteForwardingWindow(t *testing.T) {
	// Theorem 5.1's arithmetic: if Z's vote is accepted at contract a at
	// time < t0+|p|Δ, a compliant X can forward it to contract b before
	// t0+(|p|+1)Δ, where it must be accepted. Simulate the boundary: a
	// 1-hop vote lands just before 300; the 2-hop forward lands before
	// 400 and is accepted.
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	r := w.callAt(280, "carol", "coin-escrow", MethodCommit,
		CommitArgs{Deal: "D", Vote: w.vote("carol")})
	if r.Err != nil {
		t.Fatalf("vote at 280 rejected: %v", r.Err)
	}
	// X observes it (≤ Δ later) and forwards; arrival just before 400.
	v := w.vote("bob").Forward("alice", w.keys["alice"])
	r = w.callAt(380, "alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: v})
	if r.Err != nil {
		t.Fatalf("forwarded vote inside window rejected: %v", r.Err)
	}
}

func TestCommitGasDominatedBySignatures(t *testing.T) {
	// Figure 4: commit costs O(n²) signature verifications per contract
	// worst case. Exercise the worst case at n = 3: each vote arrives
	// with a maximal path (n signatures), so 3 votes ⇒ up to 9
	// verifications; writes stay constant.
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 90)
	before := w.c.Meter().Snapshot()

	votes := []sig.PathSig{
		w.vote("alice").Forward("bob", w.keys["bob"]).Forward("carol", w.keys["carol"]),
		w.vote("bob").Forward("carol", w.keys["carol"]).Forward("alice", w.keys["alice"]),
		w.vote("carol").Forward("alice", w.keys["alice"]).Forward("bob", w.keys["bob"]),
	}
	for _, v := range votes {
		r := w.call(chain.Addr(v.Hops[len(v.Hops)-1].Signer), "coin-escrow", MethodCommit,
			CommitArgs{Deal: "D", Vote: v})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	delta := w.c.Meter().Snapshot().Sub(before)
	if got := delta.Counts[gas.OpSigVerify]; got != 9 {
		t.Fatalf("sig verifications = %d, want n² = 9", got)
	}
	if w.mgr.Deal("D").Status != escrow.StatusCommitted {
		t.Fatal("deal did not commit")
	}
}

func TestVoteAcceptedEventCarriesPath(t *testing.T) {
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	var got []CommitArgs
	w.c.Subscribe(func(ev chain.Event) {
		if ev.Kind == EventVoteAccepted {
			got = append(got, ev.Data.(CommitArgs))
		}
	})
	w.call("carol", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("carol")})
	if len(got) != 1 {
		t.Fatalf("vote events = %d, want 1", len(got))
	}
	if got[0].Vote.Voter != "carol" || got[0].Vote.Len() != 1 {
		t.Fatalf("event = %+v", got[0])
	}
	// The carried path signature must itself verify, so observers can
	// forward it.
	if err := got[0].Vote.Verify(w.pubs, nil); err != nil {
		t.Fatalf("event vote does not verify: %v", err)
	}
}

func TestUnknownDealVoteRejected(t *testing.T) {
	w := newWorld(t)
	r := w.call("alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "nope", Vote: w.vote("alice")})
	if !errors.Is(r.Err, escrow.ErrUnknownDeal) {
		t.Fatalf("err = %v, want ErrUnknownDeal", r.Err)
	}
}

func TestBadArgsRejected(t *testing.T) {
	w := newWorld(t)
	r := w.call("alice", "coin-escrow", MethodCommit, "garbage")
	if !errors.Is(r.Err, chain.ErrBadArgs) {
		t.Fatalf("err = %v, want ErrBadArgs", r.Err)
	}
	r = w.call("alice", "coin-escrow", MethodRefund, 42)
	if !errors.Is(r.Err, chain.ErrBadArgs) {
		t.Fatalf("err = %v, want ErrBadArgs", r.Err)
	}
}

func TestEscrowStillWorksThroughEmbedding(t *testing.T) {
	// The embedded escrow.Manager methods remain reachable.
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	res, err := w.c.Query("coin-escrow", escrow.MethodStatus, "D")
	if err != nil {
		t.Fatal(err)
	}
	v := res.(escrow.View)
	if v.DepositedOf("alice") != 100 {
		t.Fatalf("view: alice deposited %d", v.DepositedOf("alice"))
	}
	info, ok := v.Info().(Info)
	if !ok || info.T0 != t0 || info.Delta != delta {
		t.Fatalf("info = %+v", v.Info())
	}
}

func TestAbortCostRangesFromFreeToNearCommit(t *testing.T) {
	// §7.1: "In the best case, a deal can abort with no signature
	// verifications, but in the worst case, aborting can cost almost as
	// much as committing."
	// Best case: nobody votes; the refund performs zero verifications.
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 50)
	before := w.c.Meter().Snapshot()
	if r := w.callAt(520, "alice", "coin-escrow", MethodRefund, RefundArgs{Deal: "D"}); r.Err != nil {
		t.Fatal(r.Err)
	}
	delta := w.c.Meter().Snapshot().Sub(before)
	if delta.Counts[gas.OpSigVerify] != 0 {
		t.Fatalf("best-case abort verified %d signatures, want 0", delta.Counts[gas.OpSigVerify])
	}

	// Worst case: n−1 parties vote with maximal paths before the timeout
	// kills the deal anyway — the contract has already paid for almost
	// the full commit's verifications.
	w = newWorld(t)
	w.fundAndEscrow(t, "alice", 50)
	before = w.c.Meter().Snapshot()
	votes := []sig.PathSig{
		w.vote("alice").Forward("bob", w.keys["bob"]).Forward("carol", w.keys["carol"]),
		w.vote("bob").Forward("carol", w.keys["carol"]).Forward("alice", w.keys["alice"]),
		// carol never votes: the deal must abort.
	}
	for _, v := range votes {
		if r := w.call(chain.Addr(v.Hops[len(v.Hops)-1].Signer), "coin-escrow", MethodCommit,
			CommitArgs{Deal: "D", Vote: v}); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if r := w.callAt(520, "alice", "coin-escrow", MethodRefund, RefundArgs{Deal: "D"}); r.Err != nil {
		t.Fatal(r.Err)
	}
	delta = w.c.Meter().Snapshot().Sub(before)
	// Two accepted 3-hop votes: 6 of the 9 verifications a commit costs.
	if got := delta.Counts[gas.OpSigVerify]; got != 6 {
		t.Fatalf("worst-case abort verified %d signatures, want 6 (near the commit's 9)", got)
	}
	if w.mgr.Deal("D").Status != escrow.StatusAborted {
		t.Fatal("deal did not abort")
	}
}

// Votes returns the set of accepted voters for a deal (test/inspection).
func (m *Manager) Votes(dealID string) map[chain.Addr]bool {
	out := make(map[chain.Addr]bool, len(m.votes[dealID]))
	for v := range m.votes[dealID] {
		out[v] = true
	}
	return out
}

// TestRejectionErrorsReadAsFormatted: the rejections made without
// formatting read exactly as the fmt.Errorf they replace, so receipts
// and reports keep every byte, and still match their sentinels.
func TestRejectionErrorsReadAsFormatted(t *testing.T) {
	cases := []struct {
		err, want, sentinel error
	}{
		{escrow.NotActive("D", escrow.StatusCommitted),
			fmt.Errorf("%w: %s is %s", escrow.ErrNotActive, "D", escrow.StatusCommitted), escrow.ErrNotActive},
		{escrow.NotActive("ring-3", escrow.StatusAborted),
			fmt.Errorf("%w: %s is %s", escrow.ErrNotActive, "ring-3", escrow.StatusAborted), escrow.ErrNotActive},
		{escrow.NotActive("", escrow.StatusUnknown),
			fmt.Errorf("%w: %s is %s", escrow.ErrNotActive, "", escrow.StatusUnknown), escrow.ErrNotActive},
		{escrow.NotActive("D", escrow.Status(9)),
			fmt.Errorf("%w: %s is %s", escrow.ErrNotActive, "D", escrow.Status(9)), escrow.ErrNotActive},
		{&duplicateVoteError{"bob"},
			fmt.Errorf("%w: %s", ErrDuplicateVote, chain.Addr("bob")), ErrDuplicateVote},
		{&duplicateVoteError{""},
			fmt.Errorf("%w: %s", ErrDuplicateVote, chain.Addr("")), ErrDuplicateVote},
	}
	for _, c := range cases {
		if c.err.Error() != c.want.Error() {
			t.Errorf("error reads %q, want %q", c.err, c.want)
		}
		if !errors.Is(c.err, c.sentinel) || errors.Is(c.err, ErrVoteTooLate) {
			t.Errorf("%q: errors.Is matches the wrong sentinels", c.err)
		}
	}

	// As the contract returns them, in receipts.
	w := newWorld(t)
	w.fundAndEscrow(t, "alice", 100)
	w.call("alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("alice")})
	r := w.call("alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("alice")})
	if want := "timelock: vote from this party already accepted: alice"; r.Err == nil || r.Err.Error() != want {
		t.Fatalf("repeated vote: err = %v, want %q", r.Err, want)
	}
	for _, p := range []chain.Addr{"bob", "carol"} {
		w.call(p, "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote(p)})
	}
	r = w.call("bob", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("bob")})
	if want := "escrow: deal is no longer active: D is committed"; r.Err == nil || r.Err.Error() != want {
		t.Fatalf("vote after commit: err = %v, want %q", r.Err, want)
	}
}
