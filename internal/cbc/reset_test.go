package cbc

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/deal"
	"xdeal/internal/escrow"
)

// outcome is what a receipt says, its error as text.
type outcome struct {
	height uint64
	result any
	err    string
}

// proofScript starts deal D on w's CBC, escrows and pays, votes it
// through and presents the commit proof twice. It returns the outcome of
// every receipt after the escrow.
func proofScript(t *testing.T, w *world) []outcome {
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	var out []outcome
	add := func(height uint64, res any, err error) { out = append(out, outcome{height, res, fmt.Sprint(err)}) }
	r := w.call("alice", "coin-escrow", escrow.MethodTransfer, escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})
	add(r.Height, r.Result, r.Err)
	w.voteAll("D", h)
	proof, err := w.cbc.StatusProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r = w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof})
		add(r.Height, r.Result, r.Err)
	}
	return out
}

// TestResetEqualsFresh runs deal D on a manager, resets it and runs D
// again in a new world with a new CBC: the receipts and the whole manager
// afterwards must equal D run on a new manager, though the first run left
// D committed, its start hash recorded and its deposits paid out.
func TestResetEqualsFresh(t *testing.T) {
	mgr := NewManager(escrow.NewBook("coin", deal.Fungible))
	mgr.InfoEqual = func(a, b any) bool { return true }
	proofScript(t, newWorldWith(1, mgr))
	mgr.Reset("coin", deal.Fungible)
	got := proofScript(t, newWorldWith(1, mgr))
	fresh := NewManager(escrow.NewBook("coin", deal.Fungible))
	if want := proofScript(t, newWorldWith(1, fresh)); !reflect.DeepEqual(got, want) {
		t.Errorf("receipts after a reset:\n%v\nfresh:\n%v", got, want)
	}
	if !reflect.DeepEqual(mgr, fresh) {
		t.Errorf("manager after a reset %+v, fresh %+v", mgr, fresh)
	}
}
