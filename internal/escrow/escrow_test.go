package escrow

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

// world wires a chain with a fungible token, an NFT, and escrow managers.
type world struct {
	c      *chain.Chain
	sched  *sim.Scheduler
	coin   *token.Fungible
	tix    *token.NFT
	coinEs *Manager
	tixEs  *Manager
}

func newWorld(t *testing.T) *world {
	t.Helper()
	return newWorldRaw()
}

func newWorldRaw() *world {
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{
		ID:            "chain",
		BlockInterval: 10,
		Delays:        chain.SyncPolicy{Min: 1, Max: 3},
		Schedule:      gas.DefaultSchedule(),
	}, sched, sim.NewRNG(1))
	w := &world{
		c:     c,
		sched: sched,
		coin:  token.NewFungible("bank"),
		tix:   token.NewNFT("theater"),
	}
	w.coinEs = NewManager(NewBook("coin", deal.Fungible))
	w.tixEs = NewManager(NewBook("tix", deal.NonFungible))
	c.MustDeploy("coin", w.coin)
	c.MustDeploy("tix", w.tix)
	c.MustDeploy("coin-escrow", w.coinEs)
	c.MustDeploy("tix-escrow", w.tixEs)
	return w
}

func (w *world) call(sender, contract chain.Addr, method string, args any) *chain.Receipt {
	var rcpt *chain.Receipt
	w.c.Submit(&chain.Tx{Sender: sender, Contract: contract, Method: method, Args: args,
		Label: "test", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.sched.Run()
	return rcpt
}

// fund mints and approves so a party can escrow.
func (w *world) fund(p chain.Addr, coins uint64, tickets ...string) {
	if coins > 0 {
		w.call("bank", "coin", token.MethodMint, token.MintArgs{To: p, Amount: coins})
		w.call(p, "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
	}
	for _, id := range tickets {
		w.call("theater", "tix", token.MethodMint, token.MintArgs{To: p, Token: id})
	}
	if len(tickets) > 0 {
		w.call(p, "tix", token.MethodApprove, token.ApproveArgs{Operator: "tix-escrow", Allowed: true})
	}
}

var parties = []chain.Addr{"alice", "bob", "carol"}

func escrowCoins(dealID string, amount uint64) EscrowArgs {
	return EscrowArgs{Deal: dealID, Parties: parties, Info: "info", Amount: amount}
}

func TestEscrowFungibleHappyPath(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 200)

	r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 150))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Post: Owns(D, a) — the contract holds the tokens.
	if w.coin.BalanceOf("coin-escrow") != 150 {
		t.Fatalf("contract balance = %d, want 150", w.coin.BalanceOf("coin-escrow"))
	}
	if w.coin.BalanceOf("alice") != 50 {
		t.Fatalf("alice balance = %d, want 50", w.coin.BalanceOf("alice"))
	}
	// Post: OwnsA(P, a) ∧ OwnsC(P, a).
	st := w.coinEs.Deal("D")
	if st.Deposited["alice"] != 150 || st.OnCommit["alice"] != 150 {
		t.Fatalf("A/C maps = %d/%d, want 150/150", st.Deposited["alice"], st.OnCommit["alice"])
	}
}

func TestEscrowRequiresOwnership(t *testing.T) {
	// Pre: Owns(P, a) — escrowing more than owned fails.
	w := newWorld(t)
	w.fund("alice", 100)
	r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 101))
	if !errors.Is(r.Err, token.ErrInsufficientBalance) {
		t.Fatalf("err = %v, want ErrInsufficientBalance", r.Err)
	}
	if w.coinEs.Deal("D").Deposited["alice"] != 0 {
		t.Fatal("failed escrow left bookkeeping behind")
	}
}

func TestEscrowRequiresMembership(t *testing.T) {
	w := newWorld(t)
	w.fund("mallory", 100)
	w.call("mallory", "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
	r := w.call("mallory", "coin-escrow", MethodEscrow, escrowCoins("D", 50))
	if !errors.Is(r.Err, ErrNotParty) {
		t.Fatalf("err = %v, want ErrNotParty", r.Err)
	}
}

func TestEscrowZeroRejected(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 0))
	if !errors.Is(r.Err, ErrNothingEscrowed) {
		t.Fatalf("err = %v, want ErrNothingEscrowed", r.Err)
	}
}

func TestEscrowInfoMismatchRejected(t *testing.T) {
	// Validation depends on all parties seeing identical Dinfo; a second
	// escrow with different info must fail.
	w := newWorld(t)
	w.fund("alice", 100)
	w.fund("bob", 100)
	r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 10))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	bad := escrowCoins("D", 10)
	bad.Info = "different"
	r = w.call("bob", "coin-escrow", MethodEscrow, bad)
	if !errors.Is(r.Err, ErrInfoMismatch) {
		t.Fatalf("err = %v, want ErrInfoMismatch", r.Err)
	}
	// Different party list must also fail.
	bad = escrowCoins("D", 10)
	bad.Parties = []chain.Addr{"alice", "bob"}
	r = w.call("bob", "coin-escrow", MethodEscrow, bad)
	if !errors.Is(r.Err, ErrInfoMismatch) {
		t.Fatalf("err = %v, want ErrInfoMismatch for parties", r.Err)
	}
}

func TestEscrowGasIsFourWrites(t *testing.T) {
	// §7.1: escrow incurs 4 storage writes (2 in transferFrom, 1 each for
	// the escrow and onCommit maps). The first escrow also registers the
	// deal (1 extra write).
	w := newWorld(t)
	w.fund("alice", 100)
	w.fund("bob", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 10))

	before := w.c.Meter().Snapshot()
	r := w.call("bob", "coin-escrow", MethodEscrow, escrowCoins("D", 10))
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	delta := w.c.Meter().Snapshot().Sub(before)
	if got := delta.Counts[gas.OpWrite]; got != 4 {
		t.Fatalf("escrow writes = %d, want 4 (Figure 3 analysis)", got)
	}
}

func TestTentativeTransferMovesOnlyCommitMap(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 100))

	r := w.call("alice", "coin-escrow", MethodTransfer,
		TransferArgs{Deal: "D", To: "bob", Amount: 60})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	st := w.coinEs.Deal("D")
	// Post: OwnsC(Q, a) — C map updated; A map untouched.
	if st.OnCommit["alice"] != 40 || st.OnCommit["bob"] != 60 {
		t.Fatalf("onCommit = %v", st.OnCommit)
	}
	if st.Deposited["alice"] != 100 || st.Deposited["bob"] != 0 {
		t.Fatalf("deposited mutated by tentative transfer: %v", st.Deposited)
	}
	// The real tokens never moved.
	if w.coin.BalanceOf("bob") != 0 {
		t.Fatal("tentative transfer moved real tokens")
	}
}

func TestTransferRequiresCommitOwnership(t *testing.T) {
	// Pre: OwnsC(P, a).
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 50))
	r := w.call("alice", "coin-escrow", MethodTransfer,
		TransferArgs{Deal: "D", To: "bob", Amount: 51})
	if !errors.Is(r.Err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", r.Err)
	}
	// Bob holds nothing tentatively, so he cannot transfer either.
	r = w.call("bob", "coin-escrow", MethodTransfer,
		TransferArgs{Deal: "D", To: "carol", Amount: 1})
	if !errors.Is(r.Err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", r.Err)
	}
}

func TestTransferChainThroughBroker(t *testing.T) {
	// Bob → Alice → Carol, the ticket flow of the paper's example.
	w := newWorld(t)
	w.fund("bob", 0, "seat-1A", "seat-1B")

	r := w.call("bob", "tix-escrow", MethodEscrow,
		EscrowArgs{Deal: "D", Parties: parties, Info: "info", Tokens: []string{"seat-1A", "seat-1B"}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if w.tix.OwnerOf("seat-1A") != "tix-escrow" {
		t.Fatal("escrow did not take ticket ownership")
	}
	r = w.call("bob", "tix-escrow", MethodTransfer,
		TransferArgs{Deal: "D", To: "alice", Tokens: []string{"seat-1A", "seat-1B"}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	r = w.call("alice", "tix-escrow", MethodTransfer,
		TransferArgs{Deal: "D", To: "carol", Tokens: []string{"seat-1A", "seat-1B"}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	st := w.tixEs.Deal("D")
	if st.CommitOwner["seat-1A"] != "carol" || st.AbortOwner["seat-1A"] != "bob" {
		t.Fatalf("C owner = %s, A owner = %s; want carol/bob",
			st.CommitOwner["seat-1A"], st.AbortOwner["seat-1A"])
	}
}

func TestNFTDoubleEscrowAcrossDealsRejected(t *testing.T) {
	// Double-spend prevention (§9 discussion of isolation): Bob cannot
	// sell the same tickets in two concurrent deals.
	w := newWorld(t)
	w.fund("bob", 0, "seat-1A")
	r := w.call("bob", "tix-escrow", MethodEscrow,
		EscrowArgs{Deal: "D1", Parties: parties, Info: "info", Tokens: []string{"seat-1A"}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	r = w.call("bob", "tix-escrow", MethodEscrow,
		EscrowArgs{Deal: "D2", Parties: parties, Info: "info", Tokens: []string{"seat-1A"}})
	if r.Err == nil {
		t.Fatal("same ticket escrowed in two deals")
	}
}

func TestFungibleDoubleEscrowLimitedByBalance(t *testing.T) {
	// Fungible double-spending is prevented by actual ownership: once
	// escrowed, the tokens belong to the contract.
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D1", 100))
	r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D2", 1))
	if !errors.Is(r.Err, token.ErrInsufficientBalance) {
		t.Fatalf("err = %v, want ErrInsufficientBalance", r.Err)
	}
}

func TestFinalizeCommitPaysTentativeOwners(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 100))
	w.call("alice", "coin-escrow", MethodTransfer, TransferArgs{Deal: "D", To: "bob", Amount: 100})

	env := testEnv(w, "coin-escrow")
	if err := w.coinEs.FinalizeCommit(env, "D"); err != nil {
		t.Fatal(err)
	}
	if w.coin.BalanceOf("bob") != 100 {
		t.Fatalf("bob balance = %d, want 100", w.coin.BalanceOf("bob"))
	}
	if w.coin.BalanceOf("coin-escrow") != 0 {
		t.Fatal("contract kept tokens after commit")
	}
	if w.coinEs.Deal("D").Status != StatusCommitted {
		t.Fatal("status not committed")
	}
}

func TestFinalizeAbortRefundsOriginalOwners(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 100))
	w.call("alice", "coin-escrow", MethodTransfer, TransferArgs{Deal: "D", To: "bob", Amount: 100})

	env := testEnv(w, "coin-escrow")
	if err := w.coinEs.FinalizeAbort(env, "D"); err != nil {
		t.Fatal(err)
	}
	// Despite the tentative transfer, the refund goes to alice (A map).
	if w.coin.BalanceOf("alice") != 100 {
		t.Fatalf("alice balance = %d, want 100", w.coin.BalanceOf("alice"))
	}
	if w.coin.BalanceOf("bob") != 0 {
		t.Fatal("bob received funds on abort")
	}
	if w.coinEs.Deal("D").Status != StatusAborted {
		t.Fatal("status not aborted")
	}
}

func TestFinalizeTwiceRejected(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 100))
	env := testEnv(w, "coin-escrow")
	if err := w.coinEs.FinalizeCommit(env, "D"); err != nil {
		t.Fatal(err)
	}
	if err := w.coinEs.FinalizeAbort(env, "D"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive", err)
	}
	if err := w.coinEs.FinalizeCommit(env, "D"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v, want ErrNotActive (idempotence)", err)
	}
}

func TestNFTAbortReleasesHeldTokens(t *testing.T) {
	// After abort, the ticket can be escrowed again in a new deal.
	w := newWorld(t)
	w.fund("bob", 0, "seat-1A")
	w.call("bob", "tix-escrow", MethodEscrow,
		EscrowArgs{Deal: "D1", Parties: parties, Info: "info", Tokens: []string{"seat-1A"}})
	env := testEnv(w, "tix-escrow")
	if err := w.tixEs.FinalizeAbort(env, "D1"); err != nil {
		t.Fatal(err)
	}
	if w.tix.OwnerOf("seat-1A") != "bob" {
		t.Fatal("abort did not refund ticket")
	}
	r := w.call("bob", "tix-escrow", MethodEscrow,
		EscrowArgs{Deal: "D2", Parties: parties, Info: "info", Tokens: []string{"seat-1A"}})
	if r.Err != nil {
		t.Fatalf("re-escrow after abort failed: %v", r.Err)
	}
}

func TestOperationsRejectedAfterFinalize(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 50))
	env := testEnv(w, "coin-escrow")
	if err := w.coinEs.FinalizeCommit(env, "D"); err != nil {
		t.Fatal(err)
	}
	r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 10))
	if !errors.Is(r.Err, ErrNotActive) {
		t.Fatalf("escrow after commit: err = %v, want ErrNotActive", r.Err)
	}
	r = w.call("alice", "coin-escrow", MethodTransfer, TransferArgs{Deal: "D", To: "bob", Amount: 1})
	if !errors.Is(r.Err, ErrNotActive) {
		t.Fatalf("transfer after commit: err = %v, want ErrNotActive", r.Err)
	}
}

func TestUnknownDealRejected(t *testing.T) {
	w := newWorld(t)
	r := w.call("alice", "coin-escrow", MethodTransfer, TransferArgs{Deal: "nope", To: "bob", Amount: 1})
	if !errors.Is(r.Err, ErrUnknownDeal) {
		t.Fatalf("err = %v, want ErrUnknownDeal", r.Err)
	}
}

func TestWrongKindRejected(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	// Sending token ids to a fungible escrow.
	r := w.call("alice", "coin-escrow", MethodEscrow,
		EscrowArgs{Deal: "D", Parties: parties, Info: "info", Tokens: []string{"x"}})
	if r.Err == nil {
		t.Fatal("fungible escrow accepted token ids")
	}
}

func TestStatusView(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 70))
	res, err := w.c.Query("coin-escrow", MethodStatus, "D")
	if err != nil {
		t.Fatal(err)
	}
	v := res.(View)
	if !v.Exists() || v.Status() != StatusActive || v.Info() != "info" {
		t.Fatalf("view = %v/%v/%v", v.Exists(), v.Status(), v.Info())
	}
	if v.DepositedOf("alice") != 70 || v.OnCommitOf("alice") != 70 {
		t.Fatalf("view A/C = %d / %d", v.DepositedOf("alice"), v.OnCommitOf("alice"))
	}
	if !v.PartiesEqual(parties) || v.PartiesEqual(parties[:1]) {
		t.Fatal("PartiesEqual does not compare the whole plist")
	}
	// The view reads the contract, it does not hold a copy of it: it
	// answers for the moment it is asked...
	w.call("alice", "coin-escrow", MethodTransfer, TransferArgs{Deal: "D", To: "bob", Amount: 30})
	if v.OnCommitOf("alice") != 40 || v.OnCommitOf("bob") != 30 || v.DepositedOf("alice") != 70 {
		t.Fatalf("view after transfer: alice %d, bob %d on commit", v.OnCommitOf("alice"), v.OnCommitOf("bob"))
	}
	// ...and a caller still cannot alter the contract through it.
	assertViewReadOnly(t)
	// Unknown deal yields a zero view, which answers zero values.
	res, _ = w.c.Query("coin-escrow", MethodStatus, "nope")
	if z := res.(View); z.Exists() || z.Status() != StatusUnknown || z.OnCommitOf("alice") != 0 || z.Info() != nil {
		t.Fatal("unknown deal reported existing")
	}
}

// TestStatusQueryAllocatesNothing guards the read path parties poll on
// every event: a status query builds no meter, no Env and no snapshot,
// and the View crosses Invoke's any without boxing.
func TestStatusQueryAllocatesNothing(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 70))
	var id any = "D" // parties box their deal id once, too
	var v View
	allocs := testing.AllocsPerRun(100, func() {
		res, err := w.c.Query("coin-escrow", MethodStatus, id)
		if err != nil {
			t.Fatal(err)
		}
		v = res.(View)
	})
	if allocs != 0 || v.OnCommitOf("alice") != 70 {
		t.Fatalf("status query: %v allocs/op (want 0), alice on commit %d", allocs, v.OnCommitOf("alice"))
	}
}

// assertViewReadOnly checks the property the old deep-copying View gave
// by construction of a snapshot: nothing a caller can reach from a View
// lets it write contract state. A View has no exported field, and every
// accessor returns a plain value — never a map, slice, pointer, channel
// or function of the contract's. (Info returns the Dinfo as registered,
// an interface holding a value.)
func assertViewReadOnly(t *testing.T) {
	t.Helper()
	typ := reflect.TypeOf(View{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("View exports field %s: contract state reachable from a view", f.Name)
		}
	}
	if typ.NumMethod() == 0 {
		t.Fatal("View has no accessors to check")
	}
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		for j := 0; j < m.Type.NumOut(); j++ {
			switch out := m.Type.Out(j); out.Kind() {
			case reflect.Map, reflect.Slice, reflect.Pointer, reflect.Chan, reflect.Func, reflect.UnsafePointer:
				t.Errorf("View.%s returns %s: contract state reachable from a view", m.Name, out)
			}
		}
	}
}

func TestEscrowedEventEmitted(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 100)
	var got []chain.Event
	w.c.Subscribe(func(ev chain.Event) {
		if ev.Kind == EventEscrowed {
			got = append(got, ev)
		}
	})
	w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 10))
	if len(got) != 1 {
		t.Fatalf("escrowed events = %d, want 1", len(got))
	}
	data := got[0].Data.(EscrowedEvent)
	if data.Deal != "D" || data.Party != "alice" || data.Amount != 10 {
		t.Fatalf("event data = %+v", data)
	}
}

func TestQuickConservation(t *testing.T) {
	// Property: for any sequence of escrows and tentative transfers,
	// sum(Deposited) == sum(OnCommit) == contract token balance.
	prop := func(ops []struct {
		Kind       uint8 // 0 escrow, 1 transfer
		Party, To  uint8
		Amount     uint8
		DealChoice bool
	}) bool {
		w := newWorldRaw()
		for _, p := range parties {
			w.call("bank", "coin", token.MethodMint, token.MintArgs{To: p, Amount: 1000})
			w.call(p, "coin", token.MethodApprove, token.ApproveArgs{Operator: "coin-escrow", Allowed: true})
		}
		dealIDs := []string{"D1", "D2"}
		for _, op := range ops {
			p := parties[int(op.Party)%len(parties)]
			to := parties[int(op.To)%len(parties)]
			id := dealIDs[0]
			if op.DealChoice {
				id = dealIDs[1]
			}
			if op.Kind%2 == 0 {
				w.call(p, "coin-escrow", MethodEscrow,
					EscrowArgs{Deal: id, Parties: parties, Info: "info", Amount: uint64(op.Amount)})
			} else {
				w.call(p, "coin-escrow", MethodTransfer,
					TransferArgs{Deal: id, To: to, Amount: uint64(op.Amount)})
			}
		}
		var dep, com uint64
		for _, id := range dealIDs {
			if st := w.coinEs.Deal(id); st != nil {
				dep += st.TotalDeposited()
				com += st.TotalOnCommit()
			}
		}
		return dep == com && dep == w.coin.BalanceOf("coin-escrow")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// testEnv builds an Env executing as the given escrow contract, for
// driving Finalize* directly; the protocol packages normally do this from
// inside their Invoke methods.
func testEnv(w *world, self chain.Addr) *chain.Env {
	return w.c.TestEnv(self)
}

func TestQuickNFTEscrowStateMachine(t *testing.T) {
	// Property: for any sequence of escrows and tentative transfers over
	// a set of tickets, every token held by the contract has exactly one
	// abort owner (its depositor, never overwritten) and one commit
	// owner in the party list; tokens outside any deal remain with their
	// real owner.
	tickets := []string{"T1", "T2", "T3"}
	prop := func(ops []struct {
		Op         uint8 // 0 escrow, 1 tentative transfer
		Who, To    uint8
		Ticket     uint8
		DealChoice bool
	}) bool {
		w := newWorldRaw()
		owners := map[string]chain.Addr{"T1": "alice", "T2": "bob", "T3": "carol"}
		for tkt, owner := range owners {
			w.call("theater", "tix", token.MethodMint, token.MintArgs{To: owner, Token: tkt})
		}
		for _, p := range parties {
			w.call(p, "tix", token.MethodApprove, token.ApproveArgs{Operator: "tix-escrow", Allowed: true})
		}
		deals := []string{"D1", "D2"}
		for _, op := range ops {
			who := parties[int(op.Who)%len(parties)]
			to := parties[int(op.To)%len(parties)]
			tkt := tickets[int(op.Ticket)%len(tickets)]
			id := deals[0]
			if op.DealChoice {
				id = deals[1]
			}
			if op.Op%2 == 0 {
				w.call(who, "tix-escrow", MethodEscrow, EscrowArgs{
					Deal: id, Parties: parties, Info: "info", Tokens: []string{tkt}})
			} else {
				w.call(who, "tix-escrow", MethodTransfer, TransferArgs{
					Deal: id, To: to, Tokens: []string{tkt}})
			}
		}
		// Invariants.
		seen := make(map[string]string) // token -> deal holding it
		for _, id := range deals {
			st := w.tixEs.Deal(id)
			if st == nil {
				continue
			}
			for tkt, abortOwner := range st.AbortOwner {
				// The abort owner must be the token's original owner.
				if abortOwner != owners[tkt] {
					return false
				}
				// The contract must actually hold the token.
				if w.tix.OwnerOf(tkt) != "tix-escrow" {
					return false
				}
				// No token appears in two deals.
				if prev, dup := seen[tkt]; dup && prev != id {
					return false
				}
				seen[tkt] = id
				// The commit owner must be a deal party.
				co := st.CommitOwner[tkt]
				found := false
				for _, p := range parties {
					if p == co {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		// Unescrowed tokens still belong to their original owners.
		for tkt, owner := range owners {
			if _, held := seen[tkt]; !held && w.tix.OwnerOf(tkt) != owner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDepositAndFinalizeTimesRecorded: the book records when each
// party's capital first locked and when the deal finalized — the two
// timestamps hedge contracts settle sore-loser claims against.
func TestDepositAndFinalizeTimesRecorded(t *testing.T) {
	w := newWorld(t)
	w.fund("alice", 200)
	w.fund("bob", 100)

	if r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 100)); r.Err != nil {
		t.Fatal(r.Err)
	}
	st := w.coinEs.Deal("D")
	aliceAt, ok := st.DepositedAt["alice"]
	if !ok || aliceAt == 0 {
		t.Fatalf("alice's deposit time not recorded: %v", st.DepositedAt)
	}
	if st.FinalizedAt != 0 {
		t.Fatalf("FinalizedAt = %d before any finalize", st.FinalizedAt)
	}
	// A top-up must not move the first-lock time.
	if r := w.call("alice", "coin-escrow", MethodEscrow, escrowCoins("D", 50)); r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := st.DepositedAt["alice"]; got != aliceAt {
		t.Fatalf("top-up moved alice's first deposit time %d -> %d", aliceAt, got)
	}
	if r := w.call("bob", "coin-escrow", MethodEscrow, escrowCoins("D", 100)); r.Err != nil {
		t.Fatal(r.Err)
	}
	if bobAt := st.DepositedAt["bob"]; bobAt <= aliceAt {
		t.Fatalf("bob's later deposit stamped %d, not after alice's %d", bobAt, aliceAt)
	}

	env := w.c.TestEnv("coin-escrow")
	if err := w.coinEs.FinalizeAbort(env, "D"); err != nil {
		t.Fatal(err)
	}
	if st.FinalizedAt == 0 || st.FinalizedAt < aliceAt {
		t.Fatalf("FinalizedAt = %d, want a time at or after the first deposit %d", st.FinalizedAt, aliceAt)
	}
	view := w.coinEs.ViewOf("D")
	if view.FinalizedAt() != st.FinalizedAt || view.Status() != StatusAborted {
		t.Fatalf("view FinalizedAt = %d (%s), state has %d", view.FinalizedAt(), view.Status(), st.FinalizedAt)
	}
	if at, ok := view.DepositedAtOf("alice"); !ok || at != aliceAt {
		t.Fatalf("view DepositedAtOf(alice) = %d, %t, want %d", at, ok, aliceAt)
	}
	if at, ok := view.DepositedAtOf("carol"); ok || at != 0 {
		t.Fatalf("view reports a deposit time %d for carol, who never deposited", at)
	}
	assertViewReadOnly(t) // the timestamps cannot be rewritten through the view
}
