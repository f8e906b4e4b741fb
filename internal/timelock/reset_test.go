package timelock

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/sig"
)

// outcome is what a receipt says, its error as text.
type outcome struct {
	height uint64
	result any
	err    string
}

// voteScript escrows and pays in deal D on w, then lands bob's vote
// direct and carol's forwarded by alice after t0 + Δ, where only a
// two-hop path is still in time, and alice's own. It returns every
// receipt's outcome.
func voteScript(t *testing.T, w *world) []outcome {
	w.fundAndEscrow(t, "alice", 100)
	var out []outcome
	for _, call := range []func() (uint64, any, error){
		func() (uint64, any, error) {
			r := w.call("alice", "coin-escrow", escrow.MethodTransfer, escrow.TransferArgs{Deal: "D", To: "bob", Amount: 100})
			return r.Height, r.Result, r.Err
		},
		func() (uint64, any, error) {
			r := w.call("bob", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: w.vote("bob")})
			return r.Height, r.Result, r.Err
		},
		func() (uint64, any, error) {
			fw := w.vote("carol").ForwardWith(w.memo, "alice", w.keys["alice"])
			r := w.callAt(t0+delta+10, "alice", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: fw})
			return r.Height, r.Result, r.Err
		},
		func() (uint64, any, error) {
			fw := w.vote("alice").ForwardWith(w.memo, "bob", w.keys["bob"])
			r := w.call("bob", "coin-escrow", MethodCommit, CommitArgs{Deal: "D", Vote: fw})
			return r.Height, r.Result, r.Err
		},
	} {
		h, res, err := call()
		out = append(out, outcome{h, res, fmt.Sprint(err)})
	}
	return out
}

// TestResetEqualsFresh runs deal D on a manager, with the naive timeout
// switched on, resets it and runs D again in a new world: the receipts
// and the whole manager afterwards must equal D run on a new manager,
// though the first run left D's votes and deposits behind.
func TestResetEqualsFresh(t *testing.T) {
	memo := sig.NewMemo()
	mgr := New(escrow.NewBook("coin", deal.Fungible))
	mgr.FixedTimeout = true
	voteScript(t, newWorldWith(memo, mgr))
	mgr.Reset("coin", deal.Fungible)
	got := voteScript(t, newWorldWith(memo, mgr))
	fresh := New(escrow.NewBook("coin", deal.Fungible))
	want := voteScript(t, newWorldWith(memo, fresh))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("receipts after a reset:\n%v\nfresh:\n%v", got, want)
	}
	if fresh.Deal("D").Status != escrow.StatusCommitted {
		t.Errorf("the fresh run left D %s; the script no longer reaches a commit", fresh.Deal("D").Status)
	}
	if !reflect.DeepEqual(mgr, fresh) {
		t.Errorf("manager after a reset %+v, fresh %+v", mgr, fresh)
	}
}
