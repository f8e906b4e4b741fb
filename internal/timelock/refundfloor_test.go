package timelock

import (
	"crypto/ed25519"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

// depthFloor is the refund rule t0 + N·Δ replaced, kept as a negative
// control: a Manager whose refunds open at t0 + depth·Δ, for a relay
// depth below the party count. Everything else is the Manager's.
type depthFloor struct {
	*Manager
	depth int
}

func (m depthFloor) Invoke(env *chain.Env, method string, args any) (any, error) {
	a, ok := args.(RefundArgs)
	st := m.Deal(a.Deal)
	if method != MethodRefund || !ok || st == nil || st.Status != escrow.StatusActive {
		return m.Manager.Invoke(env, method, args)
	}
	if info, _ := st.Info.(Info); env.Now() < info.T0+sim.Time(m.depth)*info.Delta {
		return nil, ErrTooEarlyRefund
	}
	if err := m.FinalizeAbort(env, a.Deal); err != nil {
		return nil, err
	}
	env.Emit(escrow.EventAborted, escrow.OutcomeEvent{Deal: a.Deal, Status: escrow.StatusAborted})
	return nil, nil
}

// lateLongPathVotes plays the schedule a refund floor below N loses to,
// on a 3-party deal with t0 = 200 and Δ = 100. Compliant alice pays 100
// coin to bob at escA and is paid 100 bean by bob at escB, where she
// votes directly. Colluding bob and carol land every vote at escA with
// |p| = 2 at t = 372–374, just inside t0 + 2Δ, so escA commits. Bob
// pokes escB's refund at t = 400, and alice's |p| = 3 forwards of their
// votes reach escB at t = 405, inside their t0 + 3Δ deadline. escB is
// the contract escrow returns. It reports each party's final holdings,
// coin plus bean.
func lateLongPathVotes(t *testing.T, escB func(*Manager) chain.Contract) map[chain.Addr]uint64 {
	t.Helper()
	sched := sim.NewScheduler()
	keys := make(map[string]sig.KeyPair)
	pubs := make(map[string]ed25519.PublicKey)
	for _, p := range parties {
		keys[string(p)] = sig.GenerateKeyPair(string(p))
		pubs[string(p)] = keys[string(p)].Public
	}
	// One-tick blocks and a fixed 2-tick network delay: a transaction
	// submitted at s reaches the mempool at s+2 and executes in the next
	// block, at s+3 at the latest.
	c := chain.New(chain.Config{
		ID: "c", BlockInterval: 1, Delays: chain.SyncPolicy{Min: 2, Max: 2},
		Schedule: gas.DefaultSchedule(), Keys: pubs,
	}, sched, sim.NewRNG(7))
	coin, bean := token.NewFungible("bank"), token.NewFungible("bank")
	escA := New(escrow.NewBook("coin", deal.Fungible))
	c.MustDeploy("coin", coin)
	c.MustDeploy("bean", bean)
	c.MustDeploy("escA", escA)
	c.MustDeploy("escB", escB(New(escrow.NewBook("bean", deal.Fungible))))

	var receipts []*chain.Receipt
	at := func(s sim.Time, sender, contract chain.Addr, method string, args any) int {
		i := len(receipts)
		receipts = append(receipts, nil)
		sched.At(s, func() {
			c.Submit(&chain.Tx{Sender: sender, Contract: contract, Method: method, Args: args,
				Label: "test", OnReceipt: func(r *chain.Receipt) { receipts[i] = r }})
		})
		return i
	}
	vote := func(path ...string) CommitArgs {
		v := sig.NewVote("D", path[0], keys[path[0]])
		for _, f := range path[1:] {
			v = v.Forward(f, keys[f])
		}
		return CommitArgs{Deal: "D", Vote: v}
	}
	info := Info{T0: t0, Delta: delta}
	for i, leg := range []struct{ from, to, tok, esc chain.Addr }{
		{"alice", "bob", "coin", "escA"}, {"bob", "alice", "bean", "escB"},
	} {
		s := sim.Time(10 + 40*i)
		at(s, "bank", leg.tok, token.MethodMint, token.MintArgs{To: leg.from, Amount: 100})
		at(s+10, leg.from, leg.tok, token.MethodApprove, token.ApproveArgs{Operator: leg.esc, Allowed: true})
		at(s+20, leg.from, leg.esc, escrow.MethodEscrow, escrow.EscrowArgs{Deal: "D", Parties: parties, Info: info, Amount: 100})
		at(s+30, leg.from, leg.esc, escrow.MethodTransfer, escrow.TransferArgs{Deal: "D", To: leg.to, Amount: 100})
	}
	direct := at(247, "alice", "escB", MethodCommit, vote("alice"))
	var late []int
	for i, path := range [][]string{{"alice", "bob"}, {"bob", "carol"}, {"carol", "bob"}} {
		late = append(late, at(sim.Time(369+i), chain.Addr(path[1]), "escA", MethodCommit, vote(path...)))
	}
	refund := at(397, "bob", "escB", MethodRefund, RefundArgs{Deal: "D"})
	forwards := []int{
		at(402, "alice", "escB", MethodCommit, vote("bob", "carol", "alice")),
		at(402, "alice", "escB", MethodCommit, vote("carol", "bob", "alice")),
	}
	sched.Run()

	for i, r := range receipts[:direct] {
		if r.Err != nil {
			t.Fatalf("setup transaction %d failed: %v", i, r.Err)
		}
	}
	if r := receipts[direct]; r.Err != nil {
		t.Fatalf("alice's direct vote at escB rejected: %v", r.Err)
	}
	for k, i := range late {
		if r := receipts[i]; r.Err != nil || r.Time < 372 || r.Time > 374 {
			t.Fatalf("|p| = 2 vote %d at escA: time %d, err %v; want accepted at t = 372–374", k, r.Time, r.Err)
		}
	}
	if st := escA.Deal("D").Status; st != escrow.StatusCommitted {
		t.Fatalf("escA is %s after the late |p| = 2 votes, want committed", st)
	}
	if r := receipts[refund]; r.Time != 400 {
		t.Fatalf("refund poke executed at t = %d, want 400", r.Time)
	}
	for _, i := range forwards {
		if r := receipts[i]; r.Time != 405 {
			t.Fatalf("alice's forward executed at t = %d, want 405", r.Time)
		}
	}
	held := make(map[chain.Addr]uint64)
	for _, p := range parties {
		held[p] = coin.BalanceOf(p) + bean.BalanceOf(p)
	}
	return held
}

// TestRefundFloorSurvivesLateLongPathVotes: with refunds opening at
// t0 + N·Δ, the poke at t0 + 2Δ is refused and alice's forwards commit
// escB, so she ends whole. Under the depth floor (D = 2 of N = 3) the
// same schedule refunds escB first: alice ends with nothing and bob
// with both legs — the Property 1 violation the N floor closes.
func TestRefundFloorSurvivesLateLongPathVotes(t *testing.T) {
	for _, c := range []struct {
		name       string
		escB       func(*Manager) chain.Contract
		alice, bob uint64
	}{
		{"N floor", func(m *Manager) chain.Contract { return m }, 100, 100},
		{"depth floor", func(m *Manager) chain.Contract { return depthFloor{m, 2} }, 0, 200},
	} {
		t.Run(c.name, func(t *testing.T) {
			held := lateLongPathVotes(t, c.escB)
			if held["alice"] != c.alice || held["bob"] != c.bob {
				t.Fatalf("alice holds %d and bob %d, want %d and %d", held["alice"], held["bob"], c.alice, c.bob)
			}
		})
	}
}
