package incentive

import (
	"errors"
	"testing"

	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/party"
	"xdeal/internal/token"
)

const depositAmount = 12

// vaultWorld builds a CBC broker-deal world with a deposit vault wired up
// exactly as examples/deposit does: deposits locked before the deal, the
// Dinfo pinned from the observed startDeal, settlement on decision.
func vaultWorld(t *testing.T, behaviors map[chain.Addr]party.Behavior) (*engine.World, *Vault) {
	t.Helper()
	spec := deal.BrokerSpec(2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Seed: 5, Protocol: party.ProtoCBC, F: 1,
		Behaviors:   behaviors,
		ProofFormat: party.ProofBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	coinChain := w.Chains["coinchain"]
	v := NewVault("coin", spec.ID, spec.Parties)
	coinChain.MustDeploy("vault", v)

	for _, p := range spec.Parties {
		coinChain.Submit(&chain.Tx{Sender: "mint-authority", Contract: "coin",
			Method: token.MethodMint, Label: "setup",
			Args: token.MintArgs{To: p, Amount: depositAmount}})
		coinChain.Submit(&chain.Tx{Sender: p, Contract: "coin",
			Method: token.MethodApprove, Label: "setup",
			Args: token.ApproveArgs{Operator: "vault", Allowed: true}})
	}
	w.Sched.Run()
	for _, p := range spec.Parties {
		coinChain.Submit(&chain.Tx{Sender: p, Contract: "vault",
			Method: MethodDeposit, Label: "escrow",
			Args: DepositArgs{Amount: depositAmount}})
	}
	w.Sched.Run()

	settled := false
	w.CBC.Subscribe(func(b *cbc.Block) {
		if v.Info.Committee.Size() == 0 {
			if h, ok := w.CBC.StartHash(spec.ID); ok {
				v.PinInfo(cbc.Info{StartHash: h, Committee: w.CBC.InitialCommittee()})
			}
		}
		if settled || v.Info.Committee.Size() == 0 {
			return
		}
		if d := w.CBC.Deal(spec.ID); d != nil && d.Status != escrow.StatusActive {
			settled = true
			proof, err := w.CBC.BlockProofFor(spec.ID)
			if err != nil {
				return
			}
			coinChain.Submit(&chain.Tx{Sender: "alice", Contract: "vault",
				Method: MethodSettle, Label: "commit", Args: SettleArgs{Proof: proof}})
		}
	})
	return w, v
}

func TestDepositsRefundedOnCommit(t *testing.T) {
	w, v := vaultWorld(t, nil)
	coin := w.Fungibles["coinchain/coin-escrow"]
	before := map[chain.Addr]uint64{}
	for _, p := range w.Spec.Parties {
		before[p] = coin.BalanceOf(p)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("deal did not commit:\n%s", r.Summary())
	}
	if v.Forfeited() != "" {
		t.Fatalf("forfeited %s on a committed deal", v.Forfeited())
	}
	// Everyone got the deposit back (deal settlement deltas on top).
	wantDelta := map[chain.Addr]int64{"alice": 1, "bob": 100, "carol": -101}
	for _, p := range w.Spec.Parties {
		got := int64(coin.BalanceOf(p)) - int64(before[p])
		want := wantDelta[p] + depositAmount
		if got != want {
			t.Fatalf("%s delta = %+d, want %+d", p, got, want)
		}
	}
}

func TestFirstAborterForfeitsDeposit(t *testing.T) {
	w, v := vaultWorld(t, map[chain.Addr]party.Behavior{
		"bob": {party.AbortImmediately{}},
	})
	coin := w.Fungibles["coinchain/coin-escrow"]
	before := map[chain.Addr]uint64{}
	for _, p := range w.Spec.Parties {
		before[p] = coin.BalanceOf(p)
	}
	r := w.Run()
	if !r.AllAborted {
		t.Fatalf("deal did not abort:\n%s", r.Summary())
	}
	if v.Forfeited() != "bob" {
		t.Fatalf("forfeited = %q, want bob", v.Forfeited())
	}
	// Bob loses his deposit; alice and carol split it.
	delta := func(p chain.Addr) int64 { return int64(coin.BalanceOf(p)) - int64(before[p]) }
	if delta("bob") != 0 {
		t.Fatalf("bob delta = %+d, want 0 (deposit forfeited)", delta("bob"))
	}
	share := int64(depositAmount + depositAmount/2)
	if delta("alice") != share || delta("carol") != share {
		t.Fatalf("alice/carol deltas = %+d/%+d, want %+d each", delta("alice"), delta("carol"), share)
	}
}

func TestVaultRejectsOutsiderAndZero(t *testing.T) {
	w, _ := vaultWorld(t, nil)
	coinChain := w.Chains["coinchain"]
	var rcpt *chain.Receipt
	coinChain.Submit(&chain.Tx{Sender: "mallory", Contract: "vault",
		Method: MethodDeposit, Label: "t", Args: DepositArgs{Amount: 5},
		OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.Sched.Run()
	if !errors.Is(rcpt.Err, ErrNotParty) {
		t.Fatalf("err = %v, want ErrNotParty", rcpt.Err)
	}
	coinChain.Submit(&chain.Tx{Sender: "alice", Contract: "vault",
		Method: MethodDeposit, Label: "t", Args: DepositArgs{Amount: 0},
		OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.Sched.Run()
	if !errors.Is(rcpt.Err, ErrZeroDeposit) {
		t.Fatalf("err = %v, want ErrZeroDeposit", rcpt.Err)
	}
}

func TestVaultSettleRequiresInfo(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := engine.Build(spec, engine.Options{Seed: 6, Protocol: party.ProtoCBC, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := NewVault("coin", spec.ID, spec.Parties)
	w.Chains["coinchain"].MustDeploy("vault", v)
	var rcpt *chain.Receipt
	w.Chains["coinchain"].Submit(&chain.Tx{Sender: "alice", Contract: "vault",
		Method: MethodSettle, Label: "t", Args: SettleArgs{},
		OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.Sched.Run()
	if !errors.Is(rcpt.Err, ErrNotConfigured) {
		t.Fatalf("err = %v, want ErrNotConfigured", rcpt.Err)
	}
}

func TestVaultSettleOnlyOnce(t *testing.T) {
	w, v := vaultWorld(t, nil)
	r := w.Run()
	if !r.AllCommitted {
		t.Fatal("deal did not commit")
	}
	// The vault already settled during the run; a second settle fails.
	proof, err := w.CBC.BlockProofFor(w.Spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rcpt *chain.Receipt
	w.Chains["coinchain"].Submit(&chain.Tx{Sender: "carol", Contract: "vault",
		Method: MethodSettle, Label: "t", Args: SettleArgs{Proof: proof},
		OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.Sched.Run()
	if !errors.Is(rcpt.Err, ErrSettledAlready) {
		t.Fatalf("err = %v, want ErrSettledAlready", rcpt.Err)
	}
	_ = v
}

func TestVaultStatusView(t *testing.T) {
	w, _ := vaultWorld(t, nil)
	res, err := w.Chains["coinchain"].Query("vault", MethodStatus, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := res.(View)
	if view.Settled {
		t.Fatal("vault settled before the run")
	}
	if view.Deposits["alice"] != depositAmount {
		t.Fatalf("alice deposit = %d, want %d", view.Deposits["alice"], depositAmount)
	}
	// The view is a copy.
	view.Deposits["alice"] = 0
	res, _ = w.Chains["coinchain"].Query("vault", MethodStatus, nil)
	if res.(View).Deposits["alice"] != depositAmount {
		t.Fatal("View aliases vault state")
	}
}
