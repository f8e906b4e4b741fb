package engine

import (
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/party"
	"xdeal/internal/token"
)

// A single rejected escrow submission with no deal event after it must
// not starve the deal: the failure receipt resets the submitted flag,
// and the party's own re-drive timer — not some counterparty's
// transaction — retries until the balance is back. Regression test for
// the retry-starvation bug where a lone failure on an otherwise quiet
// chain idled to the refund timeout.
func TestEscrowRejectionRedrivesWithoutDealEvents(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 11, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	cc := w.Chains["coinchain"]
	// Drain 2 of carol's 101 coins before the deal starts, so her escrow
	// submission bounces with an insufficient-funds receipt.
	cc.Submit(&chain.Tx{Sender: "carol", Contract: "coin",
		Method: token.MethodTransfer, Label: "test",
		Args: token.TransferArgs{To: "sink", Amount: 2}})
	w.Sched.Run()
	// Restore the balance mid-deal via a bare token mint: it emits no
	// escrow event, so only the re-drive can pick the retry up.
	w.Sched.At(1500, func() {
		cc.Submit(&chain.Tx{Sender: "mint-authority", Contract: "coin",
			Method: token.MethodMint, Label: "test",
			Args: token.MintArgs{To: "carol", Amount: 2}})
	})
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("deal did not commit after balance restored:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
		t.Fatalf("violations:\n%s", r.Summary())
	}
}

// EscrowShortfall semantics are per leg: a party owing fungibles at two
// escrows shorts both deposits independently, and the Spec's own
// obligation accounting is never mutated by the deviation.
func TestEscrowShortfallShortsEachLeg(t *testing.T) {
	leg := func(esc string, n uint64) deal.AssetRef {
		return deal.AssetRef{Chain: "c1", Token: "tok-" + chain.Addr(esc), Escrow: chain.Addr(esc), Kind: deal.Fungible, Amount: n}
	}
	spec := &deal.Spec{
		ID:      "shortfall-legs",
		Parties: []chain.Addr{"alice", "bob", "carol"},
		Transfers: []deal.Transfer{
			{From: "alice", To: "bob", Asset: leg("esc1", 10)},
			{From: "alice", To: "carol", Asset: leg("esc2", 8)},
			{From: "bob", To: "alice", Asset: leg("esc1", 2)},
			{From: "carol", To: "alice", Asset: leg("esc2", 2)},
		},
		T0:    2000,
		Delta: 1000,
	}
	// Alice's net obligations (outgoing minus incoming per escrow) are 8
	// at esc1 and 6 at esc2; record them to prove the deviation adjusts a
	// copy rather than the Spec's own accounting.
	before := map[string]uint64{}
	for _, ob := range deal.NewPlan(spec).For("alice").Obligations {
		before[ob.Asset.Key()] = ob.Amount
	}
	w, err := Build(spec, Options{Seed: 12, Protocol: party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"alice": {party.EscrowShortfall{Amount: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.AllCommitted {
		t.Fatalf("deal committed despite shortfall:\n%s", r.Summary())
	}
	if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
		t.Fatalf("violations:\n%s", r.Summary())
	}
	// Net obligations 8 and 6, each shorted by 3 independently.
	for key, want := range map[string]uint64{"c1/esc1": 5, "c1/esc2": 3} {
		st := w.Managers[key].Deal(spec.ID)
		if st == nil {
			t.Fatalf("escrow %s never registered", key)
		}
		if got := st.Deposited["alice"]; got != want {
			t.Errorf("alice deposit at %s = %d, want %d (per-leg shortfall)", key, got, want)
		}
	}
	// The deviation adjusts a copy; the shared Spec must be untouched.
	for i, wantAmt := range []uint64{10, 8, 2, 2} {
		if got := spec.Transfers[i].Asset.Amount; got != wantAmt {
			t.Errorf("spec transfer %d amount = %d, want %d (spec mutated)", i, got, wantAmt)
		}
	}
	for _, ob := range deal.NewPlan(spec).For("alice").Obligations {
		if ob.Amount != before[ob.Asset.Key()] {
			t.Errorf("alice obligation %s = %d, want %d (spec mutated)",
				ob.Asset.Key(), ob.Amount, before[ob.Asset.Key()])
		}
	}
}
