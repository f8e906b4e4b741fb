package chain

import (
	"crypto/ed25519"
	"errors"
	"sync"
	"testing"

	"xdeal/internal/bft"
	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
)

// counter is a trivial contract for exercising the chain machinery.
type counter struct {
	n      int
	lastBy Addr
}

func (c *counter) Invoke(env *Env, method string, args any) (any, error) {
	switch method {
	case "inc":
		env.Write(1)
		c.n++
		c.lastBy = env.Sender()
		env.Emit("incremented", c.n)
		return c.n, nil
	case "fail":
		env.Emit("should-not-appear", nil)
		return nil, errors.New("boom")
	case "get":
		return c.n, nil
	default:
		return nil, ErrUnknownMethod
	}
}

// relay calls another contract, to test message-call semantics.
type relay struct{ target Addr }

func (r *relay) Invoke(env *Env, method string, args any) (any, error) {
	if method != "relay" {
		return nil, ErrUnknownMethod
	}
	return env.Call(r.target, "inc", nil)
}

func testChain(t *testing.T) (*Chain, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	c := New(Config{
		ID:            "testchain",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 3},
		Schedule:      gas.DefaultSchedule(),
	}, sched, rng)
	return c, sched
}

func TestSubmitExecutesAtBlockBoundary(t *testing.T) {
	c, sched := testChain(t)
	ctr := &counter{}
	c.MustDeploy("ctr", ctr)

	var rcpt *Receipt
	c.Submit(&Tx{Sender: "alice", Contract: "ctr", Method: "inc", Label: "t",
		OnReceipt: func(r *Receipt) { rcpt = r }})
	sched.Run()

	if ctr.n != 1 {
		t.Fatalf("counter = %d, want 1", ctr.n)
	}
	if rcpt == nil {
		t.Fatal("no receipt delivered")
	}
	if rcpt.Err != nil {
		t.Fatalf("receipt error: %v", rcpt.Err)
	}
	if rcpt.Time%10 != 0 {
		t.Fatalf("executed at %d, want a block boundary (multiple of 10)", rcpt.Time)
	}
	if rcpt.Result.(int) != 1 {
		t.Fatalf("result = %v, want 1", rcpt.Result)
	}
	if c.Height() != 1 {
		t.Fatalf("height = %d, want 1", c.Height())
	}
}

func TestSenderVisibleToContract(t *testing.T) {
	c, sched := testChain(t)
	ctr := &counter{}
	c.MustDeploy("ctr", ctr)
	c.Submit(&Tx{Sender: "bob", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	if ctr.lastBy != "bob" {
		t.Fatalf("contract saw sender %q, want bob", ctr.lastBy)
	}
}

func TestTxsExecuteInArrivalOrderWithinBlock(t *testing.T) {
	// Many txs submitted at the same instant land in one block and must
	// execute deterministically.
	c, sched := testChain(t)
	var order []int
	rec := &recorder{order: &order}
	c.MustDeploy("rec", rec)
	for i := 0; i < 20; i++ {
		c.Submit(&Tx{Sender: "a", Contract: "rec", Method: "note", Args: i, Label: "t"})
	}
	sched.Run()
	if len(order) != 20 {
		t.Fatalf("executed %d txs, want 20", len(order))
	}
	// Arrival order is randomized by submit delays but must be internally
	// consistent: replaying the same seed gives the same order.
	c2, sched2 := testChain(t)
	var order2 []int
	c2.MustDeploy("rec", &recorder{order: &order2})
	for i := 0; i < 20; i++ {
		c2.Submit(&Tx{Sender: "a", Contract: "rec", Method: "note", Args: i, Label: "t"})
	}
	sched2.Run()
	for i := range order {
		if order[i] != order2[i] {
			t.Fatalf("execution order not deterministic: %v vs %v", order, order2)
		}
	}
}

type recorder struct{ order *[]int }

func (r *recorder) Invoke(env *Env, method string, args any) (any, error) {
	*r.order = append(*r.order, args.(int))
	return nil, nil
}

func TestFailedTxDiscardsEvents(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	var events []Event
	c.Subscribe(func(ev Event) { events = append(events, ev) })

	var rcpt *Receipt
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "fail", Label: "t",
		OnReceipt: func(r *Receipt) { rcpt = r }})
	sched.Run()

	if rcpt == nil || rcpt.Err == nil {
		t.Fatal("expected failing receipt")
	}
	if len(events) != 0 {
		t.Fatalf("failed tx published %d events, want 0", len(events))
	}
}

func TestEventsDeliveredToAllSubscribers(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	got := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		c.Subscribe(func(ev Event) { got[i]++ })
	}
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	for i, n := range got {
		if n != 1 {
			t.Fatalf("subscriber %d saw %d events, want 1", i, n)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	n := 0
	unsub := c.Subscribe(func(ev Event) { n++ })
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	unsub()
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	if n != 1 {
		t.Fatalf("saw %d events after unsubscribe, want 1", n)
	}
}

func TestEventObservationDelayBounded(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	var seenAt, producedAt sim.Time
	c.Subscribe(func(ev Event) { seenAt = sched.Now(); producedAt = ev.Time })
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	if seenAt <= producedAt {
		t.Fatalf("event observed at %d, produced at %d: want strictly later", seenAt, producedAt)
	}
	if seenAt-producedAt > 3 {
		t.Fatalf("observation delay %d exceeds policy max 3", seenAt-producedAt)
	}
}

func TestUnknownContractErrors(t *testing.T) {
	c, sched := testChain(t)
	var rcpt *Receipt
	c.Submit(&Tx{Sender: "a", Contract: "nowhere", Method: "x", Label: "t",
		OnReceipt: func(r *Receipt) { rcpt = r }})
	sched.Run()
	if rcpt == nil || rcpt.Err == nil {
		t.Fatal("expected error for unknown contract")
	}
}

func TestDeployTwiceFails(t *testing.T) {
	c, _ := testChain(t)
	if err := c.Deploy("x", &counter{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy("x", &counter{}); err == nil {
		t.Fatal("second deploy at same address succeeded")
	}
}

func TestCrossContractCallSenderIsCaller(t *testing.T) {
	c, sched := testChain(t)
	ctr := &counter{}
	c.MustDeploy("ctr", ctr)
	c.MustDeploy("relay", &relay{target: "ctr"})
	c.Submit(&Tx{Sender: "alice", Contract: "relay", Method: "relay", Label: "t"})
	sched.Run()
	if ctr.n != 1 {
		t.Fatal("relayed call did not execute")
	}
	if ctr.lastBy != "relay" {
		t.Fatalf("callee saw sender %q, want relay (the calling contract)", ctr.lastBy)
	}
}

func TestCrossContractEventsPublishedWithCallerTx(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	c.MustDeploy("relay", &relay{target: "ctr"})
	var kinds []string
	c.Subscribe(func(ev Event) { kinds = append(kinds, ev.Kind) })
	c.Submit(&Tx{Sender: "a", Contract: "relay", Method: "relay", Label: "t"})
	sched.Run()
	if len(kinds) != 1 || kinds[0] != "incremented" {
		t.Fatalf("events = %v, want [incremented]", kinds)
	}
}

func TestGasMetering(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "phaseX"})
	sched.Run()
	m := c.Meter()
	if m.CountByLabel("phaseX", gas.OpWrite) != 1 {
		t.Fatalf("writes = %d, want 1", m.CountByLabel("phaseX", gas.OpWrite))
	}
	if m.CountByLabel("phaseX", gas.OpTxBase) != 1 {
		t.Fatal("tx base charge missing")
	}
}

func TestQueryIsGasFree(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	before := c.Meter().Used()
	res, err := c.Query("ctr", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1 {
		t.Fatalf("query = %v, want 1", res)
	}
	if c.Meter().Used() != before {
		t.Fatal("query consumed gas")
	}
}

func TestVerifyPathChargesPerSignature(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	alice := sig.GenerateKeyPair("alice")
	bob := sig.GenerateKeyPair("bob")
	c := New(Config{
		ID:       "c",
		Schedule: gas.DefaultSchedule(),
		Keys: map[string]ed25519.PublicKey{
			"alice": alice.Public,
			"bob":   bob.Public,
		},
	}, sched, rng)
	verif := &pathVerifier{}
	c.MustDeploy("v", verif)
	vote := sig.NewVote("D", "alice", alice).Forward("bob", bob)
	c.Submit(&Tx{Sender: "x", Contract: "v", Method: "check", Args: vote, Label: "commit"})
	sched.Run()
	if !verif.ok {
		t.Fatal("valid path rejected")
	}
	if got := c.Meter().CountByLabel("commit", gas.OpSigVerify); got != 2 {
		t.Fatalf("sig verifications metered = %d, want 2", got)
	}
}

type pathVerifier struct{ ok bool }

func (p *pathVerifier) Invoke(env *Env, method string, args any) (any, error) {
	v := args.(sig.PathSig)
	if err := env.VerifyPath(v); err != nil {
		return nil, err
	}
	p.ok = true
	return nil, nil
}

// TestSharedVerifyMemoChargesEveryCheck: a depth-4 path signature shown
// to three escrows on three chains that share a memo costs four real
// verifications, and each escrow is still charged its own four.
func TestSharedVerifyMemoChargesEveryCheck(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	names := []string{"alice", "bob", "carol", "dave"}
	keys := make(map[string]ed25519.PublicKey)
	pairs := make(map[string]sig.KeyPair)
	for _, n := range names {
		pairs[n] = sig.GenerateKeyPair(n)
		keys[n] = pairs[n].Public
	}
	vote := sig.NewVote("D", "alice", pairs["alice"])
	for _, n := range names[1:] {
		vote = vote.Forward(n, pairs[n])
	}

	memo := sig.NewMemo()
	var chains []*Chain
	for _, id := range []ID{"c0", "c1", "c2"} {
		c := New(Config{ID: id, Schedule: gas.DefaultSchedule(), Keys: keys, VerifyMemo: memo}, sched, rng)
		verif := &pathVerifier{}
		c.MustDeploy("escrow", verif)
		c.Submit(&Tx{Sender: "x", Contract: "escrow", Method: "check", Args: vote, Label: "commit"})
		chains = append(chains, c)
	}
	sched.Run()
	var charged uint64
	for _, c := range chains {
		if got := c.Meter().CountByLabel("commit", gas.OpSigVerify); got != 4 {
			t.Fatalf("chain %s charged %d verifications, want 4", c.ID(), got)
		}
		charged += c.Meter().Count(gas.OpSigVerify)
	}
	asked, hits := memo.Stats()
	if charged != 12 || asked != 12 || asked-hits != 4 {
		t.Fatalf("charged %d, asked %d, real %d; want 12, 12, 4", charged, asked, asked-hits)
	}
}

type certVerifier struct {
	committee bft.Committee
}

func (v *certVerifier) Invoke(env *Env, method string, args any) (any, error) {
	return nil, env.VerifyCertificate(args.(bft.Certificate), v.committee)
}

// TestVerifyCertificateChargesChecksPerformed: gas covers exactly the
// signature checks made — all 2f+1 of a valid certificate, those up to
// and including the first bad signature, none for a certificate turned
// away before any check — with or without a memo that has seen the
// certificate before.
func TestVerifyCertificateChargesChecksPerformed(t *testing.T) {
	committee, signers := bft.NewCommittee("cbc", 0, 1)
	valid := bft.MakeCertificate([]byte("stmt"), 0, signers[:3])
	badSecond := bft.MakeCertificate([]byte("stmt"), 0, signers[:3])
	badSecond.Sigs[1].Sig = signers[1].Sign([]byte("other"))
	underQuorum := bft.MakeCertificate([]byte("stmt"), 0, signers[:2])

	for _, memo := range []*sig.Memo{nil, sig.NewMemo()} {
		sched := sim.NewScheduler()
		c := New(Config{ID: "c", Schedule: gas.DefaultSchedule(), VerifyMemo: memo}, sched, sim.NewRNG(1))
		c.MustDeploy("v", &certVerifier{committee: committee})
		for _, tc := range []struct {
			label string
			cert  bft.Certificate
			want  uint64
			ok    bool
		}{
			{"valid", valid, 3, true},
			{"valid-again", valid, 3, true},
			{"bad-second", badSecond, 2, false},
			{"under-quorum", underQuorum, 0, false},
		} {
			var rcpt *Receipt
			c.Submit(&Tx{Sender: "x", Contract: "v", Method: "check", Args: tc.cert, Label: tc.label,
				OnReceipt: func(r *Receipt) { rcpt = r }})
			sched.Run()
			if (rcpt.Err == nil) != tc.ok {
				t.Fatalf("memo=%t %s: err = %v", memo != nil, tc.label, rcpt.Err)
			}
			if got := c.Meter().CountByLabel(tc.label, gas.OpSigVerify); got != tc.want {
				t.Fatalf("memo=%t %s: charged %d verifications, want %d", memo != nil, tc.label, got, tc.want)
			}
		}
	}
}

func TestGSTPolicyBoundsDelaysAfterGST(t *testing.T) {
	rng := sim.NewRNG(5)
	p := GSTPolicy{GST: 1000, Min: 1, PreMax: 5000, PostMax: 50}
	sawLargePre := false
	for i := 0; i < 200; i++ {
		d := rng.Duration(p.Bounds(10))
		if d > 5000 {
			t.Fatalf("pre-GST delay %d exceeds PreMax", d)
		}
		if d > 50 {
			sawLargePre = true
		}
	}
	if !sawLargePre {
		t.Fatal("pre-GST delays never exceeded post-GST bound; asynchrony not modeled")
	}
	for i := 0; i < 200; i++ {
		if d := rng.Duration(p.Bounds(2000)); d > 50 {
			t.Fatalf("post-GST delay %d exceeds PostMax", d)
		}
	}
}

func TestChainTimestampsAreBlockGranular(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	var times []sim.Time
	for i := 0; i < 5; i++ {
		c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t",
			OnReceipt: func(r *Receipt) { times = append(times, r.Time) }})
	}
	sched.Run()
	for _, tm := range times {
		if tm%10 != 0 {
			t.Fatalf("block time %d not on 10-tick boundary", tm)
		}
	}
}

func TestSubmitAfterDelaysSubmission(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	var execAt sim.Time
	c.SubmitAfter(95, &Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t",
		OnReceipt: func(r *Receipt) { execAt = r.Time }})
	sched.Run()
	if execAt < 100 {
		t.Fatalf("executed at %d, want ≥ 100 (95 + submit delay, block boundary)", execAt)
	}
}

func TestConfigDefaults(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{ID: "d"}, sched, sim.NewRNG(1))
	c.MustDeploy("ctr", &counter{})
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	if c.Height() != 1 {
		t.Fatal("defaulted chain did not produce a block")
	}
}

func TestTestEnvActsAsContract(t *testing.T) {
	c, _ := testChain(t)
	ctr := &counter{}
	c.MustDeploy("ctr", ctr)
	env := c.TestEnv("driver")
	if env.Self() != "driver" || env.Sender() != "driver" {
		t.Fatal("TestEnv identity wrong")
	}
	res, err := env.Call("ctr", "inc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1 || ctr.lastBy != "driver" {
		t.Fatalf("call through TestEnv: res=%v lastBy=%s", res, ctr.lastBy)
	}
	if c.Meter().Count(gas.OpWrite) != 1 {
		t.Fatal("TestEnv charges did not reach the chain meter")
	}
}

func TestReceiptsRecordExecutionOrder(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	for i := 0; i < 5; i++ {
		c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	}
	sched.Run()
	rs := c.Receipts()
	if len(rs) != 5 {
		t.Fatalf("receipts = %d, want 5", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Time < rs[i-1].Time {
			t.Fatal("receipts out of order")
		}
	}
	if rs[4].Result.(int) != 5 {
		t.Fatalf("last receipt result = %v, want 5", rs[4].Result)
	}
}

// TestMempoolObserversSeePendingTxs: mempool subscribers receive the
// gossip of every published transaction — full call data, before
// execution — and unsubscribing stops delivery. This is the observation
// channel front-running parties race on.
func TestMempoolObserversSeePendingTxs(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("counter", &counter{})
	var seen []PendingTx
	var seenAt []sim.Time
	unsub := c.SubscribeMempool("", nil, func(p PendingTx) {
		seen = append(seen, p)
		seenAt = append(seenAt, sched.Now())
	})
	c.Submit(&Tx{Sender: "alice", Contract: "counter", Method: "inc", Label: "test", Args: 42})
	sched.Run()
	if len(seen) != 1 {
		t.Fatalf("observer saw %d pending txs, want 1", len(seen))
	}
	p := seen[0]
	if p.Chain != "testchain" || p.Sender != "alice" || p.Contract != "counter" ||
		p.Method != "inc" || p.Label != "test" || p.Args != 42 {
		t.Fatalf("gossip leaked wrong call data: %+v", p)
	}
	// The observation is gossip, not a receipt: it arrives within the
	// notify delay of publication, before the next block boundary.
	if seenAt[0] > 10 {
		t.Fatalf("gossip arrived at t=%d, after block production", seenAt[0])
	}
	unsub()
	c.Submit(&Tx{Sender: "bob", Contract: "counter", Method: "inc"})
	sched.Run()
	if len(seen) != 1 {
		t.Fatal("unsubscribed observer still receiving gossip")
	}
}

// TestConcurrentSubmitKeepsFIFOOrder: transaction ingestion is safe
// from many goroutines while the scheduler is idle, and the overflow
// queue of a capacity-limited chain preserves arrival order — receipts
// come out exactly in submission-sequence order even though the
// submitting goroutines interleave arbitrarily. This is the FIFO
// baseline the fee market's tie-break must preserve; run under -race it
// also proves Submit itself is data-race-free.
func TestConcurrentSubmitKeepsFIFOOrder(t *testing.T) {
	run := func(t *testing.T, fees *feemarket.Config) {
		sched := sim.NewScheduler()
		c := New(Config{
			ID:            "concurrent",
			BlockInterval: 10,
			Delays:        SyncPolicy{Min: 1, Max: 1}, // constant: arrival order = seq order
			Schedule:      gas.DefaultSchedule(),
			MaxBlockTxs:   3,
			FeeMarket:     fees,
		}, sched, sim.NewRNG(1))
		c.MustDeploy("ctr", &counter{})

		const goroutines, perG = 8, 25
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					// Equal tips everywhere: the fee market's tie-break
					// must reduce to FIFO.
					c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t", Tip: 5})
				}
			}()
		}
		wg.Wait()
		sched.Run()

		rs := c.Receipts()
		if len(rs) != goroutines*perG {
			t.Fatalf("%d receipts, want %d", len(rs), goroutines*perG)
		}
		perBlock := make(map[uint64]int)
		for i, r := range rs {
			if r.Tx.seq != uint64(i) {
				t.Fatalf("receipt %d is tx seq %d: overflow broke FIFO order", i, r.Tx.seq)
			}
			perBlock[r.Height]++
		}
		for h, n := range perBlock {
			if n > 3 {
				t.Fatalf("block %d included %d txs over cap 3", h, n)
			}
		}
	}
	t.Run("fifo", func(t *testing.T) { run(t, nil) })
	t.Run("feemarket-equal-tips", func(t *testing.T) { run(t, &feemarket.Config{}) })
}

// TestFeeMarketOrdersBlocksByTip: under a fee market the block builder
// includes by descending tip, tie-broken by arrival sequence — the
// highest bidder jumps the whole queue, equal bids stay FIFO.
func TestFeeMarketOrdersBlocksByTip(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID:            "fees",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 1},
		Schedule:      gas.DefaultSchedule(),
		MaxBlockTxs:   2,
		FeeMarket:     &feemarket.Config{Initial: 100},
	}, sched, sim.NewRNG(1))
	c.MustDeploy("ctr", &counter{})

	tips := []uint64{0, 7, 3, 7, 12, 0}
	for i, tip := range tips {
		c.Submit(&Tx{Sender: Addr(rune('a' + i)), Contract: "ctr", Method: "inc", Label: "t", Tip: tip})
	}
	sched.Run()

	rs := c.Receipts()
	if len(rs) != len(tips) {
		t.Fatalf("%d receipts, want %d", len(rs), len(tips))
	}
	// Expected order: tip 12 (e), then the two tip-7s in arrival order
	// (b, d), then tip 3 (c), then the tip-0s in arrival order (a, f).
	want := []Addr{"e", "b", "d", "c", "a", "f"}
	for i, r := range rs {
		if r.Tx.Sender != want[i] {
			got := make([]Addr, len(rs))
			for j, rr := range rs {
				got[j] = rr.Tx.Sender
			}
			t.Fatalf("execution order %v, want %v", got, want)
		}
		if r.TipPaid != r.Tx.Tip {
			t.Fatalf("receipt tip %d != offered tip %d", r.TipPaid, r.Tx.Tip)
		}
		if r.BaseFee == 0 {
			t.Fatal("included tx burned no base fee")
		}
	}
	fm := c.FeeMarket()
	if fm == nil {
		t.Fatal("fee market not attached")
	}
	wantTipped := uint64(0)
	for _, tip := range tips {
		wantTipped += tip
	}
	tot := fm.Totals()
	if tot.Tipped != wantTipped {
		t.Fatalf("tipped %d, want %d", tot.Tipped, wantTipped)
	}
	if tot.Burned == 0 {
		t.Fatal("no base fees burned")
	}
	if lt := fm.LabelTotals("t"); lt != tot {
		t.Fatalf("label ledger %+v != totals %+v", lt, tot)
	}
}

// TestFeeMarketBaseFeeTracksCongestion: sustained full blocks push the
// base fee up; an idle chain decays it back toward the floor.
func TestFeeMarketBaseFeeTracksCongestion(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID:            "hot",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 1},
		Schedule:      gas.DefaultSchedule(),
		MaxBlockTxs:   2,
		FeeMarket:     &feemarket.Config{Initial: 100},
	}, sched, sim.NewRNG(1))
	c.MustDeploy("ctr", &counter{})
	start := c.FeeMarket().BaseFee()
	for i := 0; i < 30; i++ {
		c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	}
	sched.Run()
	if got := c.FeeMarket().BaseFee(); got <= start {
		t.Fatalf("base fee %d did not rise from %d across 15 full blocks", got, start)
	}
	// Receipts in later blocks burned more than receipts in earlier ones.
	rs := c.Receipts()
	if rs[len(rs)-1].BaseFee <= rs[0].BaseFee {
		t.Fatalf("late block base fee %d not above first block's %d",
			rs[len(rs)-1].BaseFee, rs[0].BaseFee)
	}
}

// TestReceiptsRecordQueuingDelay: a transaction deferred past full
// blocks carries its real inclusion time and its mempool wait — the
// receipt's Time advances with the block that actually included it
// rather than staying at publication time, so latency metrics see what
// congestion cost (the MaxBlockTxs trace-timestamp regression).
func TestReceiptsRecordQueuingDelay(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID:            "queued",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 1},
		Schedule:      gas.DefaultSchedule(),
		MaxBlockTxs:   1,
	}, sched, sim.NewRNG(1))
	c.MustDeploy("ctr", &counter{})
	for i := 0; i < 4; i++ {
		c.Submit(&Tx{Sender: Addr(rune('a' + i)), Contract: "ctr", Method: "inc", Label: "t"})
	}
	sched.Run()
	rs := c.Receipts()
	if len(rs) != 4 {
		t.Fatalf("%d receipts, want 4", len(rs))
	}
	for i, r := range rs {
		if r.ArrivedAt != 1 {
			t.Fatalf("tx %d arrived at %d, want 1 (constant submit delay)", i, r.ArrivedAt)
		}
		// Cap 1: tx i executes in block i+1 at time 10·(i+1).
		if want := sim.Time(10 * (i + 1)); r.Time != want {
			t.Fatalf("tx %d included at %d, want %d: deferred txs keep stale timestamps", i, r.Time, want)
		}
		if want := sim.Duration(10*(i+1) - 1); r.Queued() != want {
			t.Fatalf("tx %d queued %d, want %d", i, r.Queued(), want)
		}
	}
}

// TestSubscribeReceiptsObservesInclusions: the synchronous receipt feed
// sees every included transaction at its inclusion instant.
func TestSubscribeReceiptsObservesInclusions(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	var seen []*Receipt
	unsub := c.SubscribeReceipts(func(r *Receipt) { seen = append(seen, r) })
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	if len(seen) != 1 || seen[0].Tx.Sender != "a" {
		t.Fatalf("receipt feed saw %d receipts", len(seen))
	}
	unsub()
	c.Submit(&Tx{Sender: "b", Contract: "ctr", Method: "inc", Label: "t"})
	sched.Run()
	if len(seen) != 1 {
		t.Fatal("unsubscribed receipt observer still fed")
	}
}

// TestMempoolGossipCarriesTip: fee bids are public the moment they are
// published — the channel fee-bidding front-runners outbid on.
func TestMempoolGossipCarriesTip(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	var tips []uint64
	c.SubscribeMempool("", nil, func(p PendingTx) { tips = append(tips, p.Tip) })
	c.Submit(&Tx{Sender: "a", Contract: "ctr", Method: "inc", Label: "t", Tip: 9})
	sched.Run()
	if len(tips) != 1 || tips[0] != 9 {
		t.Fatalf("gossiped tips %v, want [9]", tips)
	}
}

// TestBlockCapacityQueuesOverflow: with MaxBlockTxs set, excess
// transactions wait for later blocks in arrival order — the congestion
// mechanism shared arenas rely on. Unlimited chains are unaffected.
func TestBlockCapacityQueuesOverflow(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID:            "capped",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 1},
		Schedule:      gas.DefaultSchedule(),
		MaxBlockTxs:   2,
	}, sched, sim.NewRNG(1))
	ct := &counter{}
	c.MustDeploy("counter", ct)
	for i := 0; i < 5; i++ {
		c.Submit(&Tx{Sender: Addr(string(rune('a' + i))), Contract: "counter", Method: "inc"})
	}
	sched.Run()
	if ct.n != 5 {
		t.Fatalf("executed %d of 5 capped txs", ct.n)
	}
	rs := c.Receipts()
	if len(rs) != 5 {
		t.Fatalf("%d receipts, want 5", len(rs))
	}
	perBlock := make(map[uint64]int)
	for i, r := range rs {
		perBlock[r.Height]++
		if i > 0 && rs[i-1].Height > r.Height {
			t.Fatal("receipts out of block order")
		}
		if want := Addr(string(rune('a' + i))); r.Tx.Sender != want {
			t.Fatalf("receipt %d from %s, want %s: capacity broke arrival order", i, r.Tx.Sender, want)
		}
	}
	if len(perBlock) < 3 {
		t.Fatalf("5 txs at cap 2 fit in %d blocks; capacity not enforced", len(perBlock))
	}
	for h, n := range perBlock {
		if n > 2 {
			t.Fatalf("block %d included %d txs over cap 2", h, n)
		}
	}
}

// TestReceiptCarriesCausalSeams: a receipt records the full causal
// timeline of its transaction — publish (SubmittedAt), mempool arrival
// (ArrivedAt), inclusion (Time) — with each leg non-negative.
func TestReceiptCarriesCausalSeams(t *testing.T) {
	c, sched := testChain(t)
	c.MustDeploy("ctr", &counter{})
	var rcpt *Receipt
	sched.At(5, func() {
		c.Submit(&Tx{Sender: "alice", Contract: "ctr", Method: "inc", Label: "t",
			OnReceipt: func(r *Receipt) { rcpt = r }})
	})
	sched.Run()
	if rcpt == nil {
		t.Fatal("no receipt delivered")
	}
	if rcpt.SubmittedAt != 5 {
		t.Fatalf("SubmittedAt = %d, want the publish time 5", rcpt.SubmittedAt)
	}
	if rcpt.ArrivedAt < rcpt.SubmittedAt {
		t.Fatalf("arrived (%d) before submitted (%d)", rcpt.ArrivedAt, rcpt.SubmittedAt)
	}
	if rcpt.Time < rcpt.ArrivedAt {
		t.Fatalf("included (%d) before arrival (%d)", rcpt.Time, rcpt.ArrivedAt)
	}
	if rcpt.Deferrals != 0 || rcpt.PricedOut || rcpt.OutbidBy != "" {
		t.Fatalf("uncongested tx marked deferred: %+v", rcpt)
	}
}

// TestReceiptCountsCapacityDeferrals: on a capacity-limited chain
// without a fee market, a bumped transaction counts its deferrals but
// is never marked priced-out — the wait is plain block queueing.
func TestReceiptCountsCapacityDeferrals(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID:            "narrow",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 1},
		Schedule:      gas.DefaultSchedule(),
		MaxBlockTxs:   1,
	}, sched, sim.NewRNG(1))
	c.MustDeploy("ctr", &counter{})
	receipts := make([]*Receipt, 3)
	for i := range receipts {
		i := i
		c.Submit(&Tx{Sender: "alice", Contract: "ctr", Method: "inc", Label: "t",
			OnReceipt: func(r *Receipt) { receipts[i] = r }})
	}
	sched.Run()
	for i, r := range receipts {
		if r == nil {
			t.Fatalf("tx %d has no receipt", i)
		}
		if r.Deferrals != i {
			t.Fatalf("tx %d deferred %d times, want %d (one narrow block per interval)",
				i, r.Deferrals, i)
		}
		if r.PricedOut || r.OutbidBy != "" {
			t.Fatalf("capacity deferral marked as fee displacement: %+v", r)
		}
	}
}

// TestReceiptMarksFeeDisplacement: with a fee market, a transaction
// bumped by higher bids is marked priced-out and names the marginal
// bidder that displaced it.
func TestReceiptMarksFeeDisplacement(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID:            "fees",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 1},
		Schedule:      gas.DefaultSchedule(),
		MaxBlockTxs:   1,
		FeeMarket:     &feemarket.Config{Initial: 10},
	}, sched, sim.NewRNG(1))
	c.MustDeploy("ctr", &counter{})
	var cheap, rich *Receipt
	c.Submit(&Tx{Sender: "poor", Contract: "ctr", Method: "inc", Label: "t", Tip: 1,
		OnReceipt: func(r *Receipt) { cheap = r }})
	c.Submit(&Tx{Sender: "whale", Contract: "ctr", Method: "inc", Label: "t", Tip: 50,
		OnReceipt: func(r *Receipt) { rich = r }})
	sched.Run()
	if cheap == nil || rich == nil {
		t.Fatal("missing receipts")
	}
	if rich.Deferrals != 0 || rich.PricedOut {
		t.Fatalf("winning bid marked deferred: %+v", rich)
	}
	if !cheap.PricedOut {
		t.Fatalf("outbid tx not marked priced-out: %+v", cheap)
	}
	if cheap.OutbidBy != "whale" {
		t.Fatalf("OutbidBy = %q, want whale", cheap.OutbidBy)
	}
	if cheap.Deferrals == 0 {
		t.Fatal("outbid tx shows no deferrals")
	}
	if cheap.Time <= rich.Time {
		t.Fatalf("outbid tx included at %d, not after the whale's %d", cheap.Time, rich.Time)
	}
}
