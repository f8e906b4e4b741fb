package htlc

import (
	"errors"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

// world wires chains, tokens, and HTLC managers for a swap spec.
type world struct {
	sched    *sim.Scheduler
	chains   map[chain.ID]*chain.Chain
	tokens   map[string]*token.Fungible
	nfts     map[string]*token.NFT
	managers map[string]chain.Addr
	mgrObjs  map[string]*Manager
}

func buildWorld(t *testing.T, spec *deal.Spec, seed uint64) *world {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	w := &world{
		sched:    sched,
		chains:   make(map[chain.ID]*chain.Chain),
		tokens:   make(map[string]*token.Fungible),
		nfts:     make(map[string]*token.NFT),
		managers: make(map[string]chain.Addr),
		mgrObjs:  make(map[string]*Manager),
	}
	for _, a := range spec.Escrows() {
		c, ok := w.chains[a.Chain]
		if !ok {
			c = chain.New(chain.Config{
				ID: a.Chain, BlockInterval: 10,
				Delays:   chain.SyncPolicy{Min: 1, Max: 3},
				Schedule: gas.DefaultSchedule(),
			}, sched, rng)
			w.chains[a.Chain] = c
		}
		key := a.Key()
		htlcAddr := chain.Addr("htlc-" + string(a.Escrow))
		w.managers[key] = htlcAddr
		m := New(a.Token, a.Kind)
		w.mgrObjs[key] = m
		if a.Kind == deal.Fungible {
			f := token.NewFungible(string(a.Token), "bank")
			w.tokens[key] = f
			c.MustDeploy(a.Token, f)
		} else {
			n := token.NewNFT(string(a.Token), "bank")
			w.nfts[key] = n
			c.MustDeploy(a.Token, n)
		}
		c.MustDeploy(htlcAddr, m)
	}
	// Fund and approve.
	for _, p := range spec.Parties {
		for _, ob := range deal.NewPlan(spec).For(p).Obligations {
			key := ob.Asset.Key()
			c := w.chains[ob.Asset.Chain]
			if ob.Asset.Kind == deal.Fungible {
				c.Submit(&chain.Tx{Sender: "bank", Contract: ob.Asset.Token,
					Method: token.MethodMint, Label: "setup",
					Args: token.MintArgs{To: p, Amount: ob.Amount}})
			} else {
				for _, id := range ob.Tokens {
					c.Submit(&chain.Tx{Sender: "bank", Contract: ob.Asset.Token,
						Method: token.MethodMint, Label: "setup",
						Args: token.MintArgs{To: p, Token: id}})
				}
			}
			c.Submit(&chain.Tx{Sender: p, Contract: ob.Asset.Token,
				Method: token.MethodApprove, Label: "setup",
				Args: token.ApproveArgs{Operator: w.managers[key], Allowed: true}})
		}
	}
	sched.Run()
	return w
}

func (w *world) swap(t *testing.T, spec *deal.Spec, behaviors map[chain.Addr]SwapBehavior) *Swap {
	t.Helper()
	s, err := NewSwap(SwapConfig{
		Spec: spec, Chains: w.chains, Managers: w.managers,
		Sched: w.sched, Delta: 1000, Behaviors: behaviors,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSupportsSwapShapes(t *testing.T) {
	if err := Supports(deal.SwapSpec(1, 1)); err != nil {
		t.Fatalf("two-party swap rejected: %v", err)
	}
	if err := Supports(deal.RingSpec(4, 1, 1)); err != nil {
		t.Fatalf("circular swap rejected: %v", err)
	}
	if err := Supports(deal.BrokerSpec(1, 1)); err == nil {
		t.Fatal("broker deal accepted: Alice has nothing to swap (§8)")
	}
	if err := Supports(deal.AuctionSpec(1, 1, 100, 50)); err == nil {
		t.Fatal("auction deal accepted: the seller forwards the loser's refund")
	}
}

func TestTwoPartySwapHappyPath(t *testing.T) {
	spec := deal.SwapSpec(0, 0)
	w := buildWorld(t, spec, 1)
	s := w.swap(t, spec, nil)
	s.Start()
	w.sched.Run()

	if s.Claims != 2 {
		t.Fatalf("claims = %d, want 2", s.Claims)
	}
	if w.tokens["chainA/escA"].BalanceOf("bob") != 100 {
		t.Fatalf("bob balance = %d, want 100", w.tokens["chainA/escA"].BalanceOf("bob"))
	}
	if w.tokens["chainB/escB"].BalanceOf("alice") != 200 {
		t.Fatalf("alice balance = %d, want 200", w.tokens["chainB/escB"].BalanceOf("alice"))
	}
}

func TestFivePartyCircularSwap(t *testing.T) {
	spec := deal.RingSpec(5, 0, 0)
	w := buildWorld(t, spec, 2)
	s := w.swap(t, spec, nil)
	s.Start()
	w.sched.Run()
	if s.Claims != 5 {
		t.Fatalf("claims = %d, want 5", s.Claims)
	}
	// Every party paid 100 on its own chain and received 100 on its
	// predecessor's chain.
	for i := 0; i < 5; i++ {
		key := spec.Transfers[i].Asset.Key()
		to := spec.Transfers[i].To
		if got := w.tokens[key].BalanceOf(to); got != 100 {
			t.Fatalf("recipient %s got %d on %s, want 100", to, got, key)
		}
	}
}

func TestSwapAbortsWhenFollowerNeverLocks(t *testing.T) {
	spec := deal.SwapSpec(0, 0)
	w := buildWorld(t, spec, 3)
	s := w.swap(t, spec, map[chain.Addr]SwapBehavior{
		"bob": {SkipLock: true},
	})
	s.Start()
	w.sched.Run()
	if s.Claims != 0 {
		t.Fatalf("claims = %d, want 0", s.Claims)
	}
	if s.Refunds != 1 {
		t.Fatalf("refunds = %d, want 1 (alice reclaims)", s.Refunds)
	}
	// Alice got her 100 back.
	if got := w.tokens["chainA/escA"].BalanceOf("alice"); got != 100 {
		t.Fatalf("alice balance = %d, want refund of 100", got)
	}
}

func TestSwapAbortsWhenLeaderNeverReveals(t *testing.T) {
	spec := deal.SwapSpec(0, 0)
	w := buildWorld(t, spec, 4)
	s := w.swap(t, spec, map[chain.Addr]SwapBehavior{
		"alice": {SkipClaim: true},
	})
	s.Start()
	w.sched.Run()
	if s.Claims != 0 {
		t.Fatalf("claims = %d, want 0", s.Claims)
	}
	if s.Refunds != 2 {
		t.Fatalf("refunds = %d, want both locks reclaimed", s.Refunds)
	}
	if got := w.tokens["chainB/escB"].BalanceOf("bob"); got != 200 {
		t.Fatalf("bob balance = %d, want refund of 200", got)
	}
}

func TestSwapLateClaimLosesToRefund(t *testing.T) {
	// Bob claims far too late: Alice already revealed the secret and took
	// his asset, but his claim on her lock misses the deadline — the
	// classic HTLC griefing risk for slow parties. Bob deviated (slow),
	// so the asymmetric outcome is "technically correct".
	spec := deal.SwapSpec(0, 0)
	w := buildWorld(t, spec, 5)
	s := w.swap(t, spec, map[chain.Addr]SwapBehavior{
		"bob": {DelayClaim: 10000},
	})
	s.Start()
	w.sched.Run()
	// Alice claimed bob's lock; bob's late claim on alice's lock failed;
	// alice's lock refunded back to her.
	if got := w.tokens["chainB/escB"].BalanceOf("alice"); got != 200 {
		t.Fatalf("alice balance on chainB = %d, want 200 (claimed)", got)
	}
	if got := w.tokens["chainA/escA"].BalanceOf("alice"); got != 100 {
		t.Fatalf("alice balance on chainA = %d, want 100 (refunded)", got)
	}
	if got := w.tokens["chainA/escA"].BalanceOf("bob"); got != 0 {
		t.Fatalf("bob got %d on chainA despite missing the deadline", got)
	}
}

func TestWrongPreimageRejected(t *testing.T) {
	spec := deal.SwapSpec(0, 0)
	w := buildWorld(t, spec, 6)
	s := w.swap(t, spec, map[chain.Addr]SwapBehavior{
		"alice": {WrongPreimage: true},
	})
	s.Start()
	w.sched.Run()
	if s.Claims != 0 {
		t.Fatalf("claims = %d, want 0 (garbage preimage)", s.Claims)
	}
	if s.Refunds != 2 {
		t.Fatalf("refunds = %d, want 2", s.Refunds)
	}
}

func TestHTLCContractDirect(t *testing.T) {
	// Contract-level behaviors not exercised by the protocol driver.
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{ID: "c", BlockInterval: 10,
		Delays: chain.SyncPolicy{Min: 1, Max: 2}, Schedule: gas.DefaultSchedule(),
	}, sched, sim.NewRNG(9))
	f := token.NewFungible("tok", "bank")
	m := New("tok", deal.Fungible)
	c.MustDeploy("tok", f)
	c.MustDeploy("htlc", m)

	call := func(sender chain.Addr, method string, args any) *chain.Receipt {
		var rcpt *chain.Receipt
		c.Submit(&chain.Tx{Sender: sender, Contract: "htlc", Method: method, Args: args,
			Label: "t", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
		sched.Run()
		return rcpt
	}
	c.Submit(&chain.Tx{Sender: "bank", Contract: "tok", Method: token.MethodMint,
		Label: "setup", Args: token.MintArgs{To: "alice", Amount: 100}})
	c.Submit(&chain.Tx{Sender: "alice", Contract: "tok", Method: token.MethodApprove,
		Label: "setup", Args: token.ApproveArgs{Operator: "htlc", Allowed: true}})
	sched.Run()

	secret := []byte("s3cret")
	h := sig.Hash(secret)
	r := call("alice", MethodLock, LockArgs{ID: "L", Hash: h, Claimant: "bob", Deadline: 1000, Amount: 100})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Duplicate lock id.
	if r = call("alice", MethodLock, LockArgs{ID: "L", Hash: h, Claimant: "bob", Deadline: 1000, Amount: 1}); !errors.Is(r.Err, ErrLockExists) {
		t.Fatalf("err = %v, want ErrLockExists", r.Err)
	}
	// Claim by non-claimant.
	if r = call("mallory", MethodClaim, ClaimArgs{ID: "L", Preimage: secret}); !errors.Is(r.Err, ErrNotClaimant) {
		t.Fatalf("err = %v, want ErrNotClaimant", r.Err)
	}
	// Wrong preimage by claimant.
	if r = call("bob", MethodClaim, ClaimArgs{ID: "L", Preimage: []byte("nope")}); !errors.Is(r.Err, ErrWrongSecret) {
		t.Fatalf("err = %v, want ErrWrongSecret", r.Err)
	}
	// Refund too early.
	if r = call("alice", MethodRefund, RefundArgs{ID: "L"}); !errors.Is(r.Err, ErrTooEarly) {
		t.Fatalf("err = %v, want ErrTooEarly", r.Err)
	}
	// Valid claim.
	if r = call("bob", MethodClaim, ClaimArgs{ID: "L", Preimage: secret}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if f.BalanceOf("bob") != 100 {
		t.Fatalf("bob = %d, want 100", f.BalanceOf("bob"))
	}
	// Double settle.
	if r = call("bob", MethodClaim, ClaimArgs{ID: "L", Preimage: secret}); !errors.Is(r.Err, ErrSettled) {
		t.Fatalf("err = %v, want ErrSettled", r.Err)
	}
	// Unknown lock.
	if r = call("bob", MethodClaim, ClaimArgs{ID: "zzz", Preimage: secret}); !errors.Is(r.Err, ErrUnknownLock) {
		t.Fatalf("err = %v, want ErrUnknownLock", r.Err)
	}
}

func TestHTLCClaimHasNoSignatureVerifications(t *testing.T) {
	// The cost contrast with the timelock deal protocol: HTLC settlement
	// verifies hash preimages, never signatures.
	spec := deal.SwapSpec(0, 0)
	w := buildWorld(t, spec, 7)
	s := w.swap(t, spec, nil)
	s.Start()
	w.sched.Run()
	for _, c := range w.chains {
		if n := c.Meter().Count(gas.OpSigVerify); n != 0 {
			t.Fatalf("chain %s performed %d signature verifications", c.ID(), n)
		}
	}
}

func TestLateClaimAfterDeadlineRejected(t *testing.T) {
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{ID: "c", BlockInterval: 10,
		Delays: chain.SyncPolicy{Min: 1, Max: 2}, Schedule: gas.DefaultSchedule(),
	}, sched, sim.NewRNG(10))
	f := token.NewFungible("tok", "bank")
	m := New("tok", deal.Fungible)
	c.MustDeploy("tok", f)
	c.MustDeploy("htlc", m)
	c.Submit(&chain.Tx{Sender: "bank", Contract: "tok", Method: token.MethodMint,
		Label: "setup", Args: token.MintArgs{To: "alice", Amount: 5}})
	c.Submit(&chain.Tx{Sender: "alice", Contract: "tok", Method: token.MethodApprove,
		Label: "setup", Args: token.ApproveArgs{Operator: "htlc", Allowed: true}})
	sched.Run()

	secret := []byte("s")
	c.Submit(&chain.Tx{Sender: "alice", Contract: "htlc", Method: MethodLock, Label: "t",
		Args: LockArgs{ID: "L", Hash: sig.Hash(secret), Claimant: "bob", Deadline: 100, Amount: 5}})
	sched.Run()

	var rcpt *chain.Receipt
	sched.At(200, func() {
		c.Submit(&chain.Tx{Sender: "bob", Contract: "htlc", Method: MethodClaim, Label: "t",
			Args:      ClaimArgs{ID: "L", Preimage: secret},
			OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	})
	sched.Run()
	if rcpt == nil || !errors.Is(rcpt.Err, ErrPastDeadline) {
		t.Fatalf("err = %v, want ErrPastDeadline", rcpt.Err)
	}
}
