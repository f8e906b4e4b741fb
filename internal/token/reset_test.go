package token

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/chain"
)

// ledgerCall is one transaction of a token script.
type ledgerCall struct {
	sender chain.Addr
	method string
	args   any
}

// runLedger deploys ct on a new world, runs the calls and returns each
// receipt's outcome.
func runLedger(t *testing.T, ct chain.Contract, calls []ledgerCall) []string {
	t.Helper()
	w := newWorld(t)
	w.c.MustDeploy("tok", ct)
	var out []string
	for _, c := range calls {
		r := w.call(c.sender, "tok", c.method, c.args)
		out = append(out, fmt.Sprintf("%d %v %v", r.Height, r.Result, r.Err))
	}
	return out
}

// TestResetEqualsFresh runs script A on a ledger, resets it for another
// minter and runs script B on it: B's receipts and the whole ledger
// afterwards must equal B on a new ledger, though A left balances,
// approvals and tokens behind.
func TestResetEqualsFresh(t *testing.T) {
	fungibleA := []ledgerCall{
		{"bank", MethodMint, MintArgs{To: "dave", Amount: 70}},
		{"dave", MethodApprove, ApproveArgs{Operator: "op", Allowed: true}},
		{"alice", MethodApprove, ApproveArgs{Operator: "op", Allowed: true}},
		{"op", MethodTransferFrom, TransferFromArgs{From: "dave", To: "alice", Amount: 20}},
	}
	fungibleB := []ledgerCall{
		{"mint", MethodMint, MintArgs{To: "alice", Amount: 100}},
		{"op", MethodTransferFrom, TransferFromArgs{From: "alice", To: "bob", Amount: 30}}, // not approved here
		{"alice", MethodApprove, ApproveArgs{Operator: "op", Allowed: true}},
		{"op", MethodTransferFrom, TransferFromArgs{From: "alice", To: "bob", Amount: 30}},
		{"dave", MethodTransfer, TransferArgs{To: "bob", Amount: 1}}, // dave holds nothing here
		{"bob", MethodTransfer, TransferArgs{To: "carol", Amount: 10}},
	}
	f := NewFungible("bank")
	runLedger(t, f, fungibleA)
	f.Reset("mint")
	got := runLedger(t, f, fungibleB)
	fresh := NewFungible("mint")
	if want := runLedger(t, fresh, fungibleB); !reflect.DeepEqual(got, want) {
		t.Errorf("fungible receipts after a reset:\n%v\nfresh:\n%v", got, want)
	}
	if !reflect.DeepEqual(f, fresh) {
		t.Errorf("fungible ledger after a reset %+v, fresh %+v", f, fresh)
	}

	nftA := []ledgerCall{
		{"bank", MethodMint, MintArgs{To: "dave", Token: "seat-1"}},
		{"dave", MethodApprove, ApproveArgs{Operator: "op", Allowed: true}},
	}
	nftB := []ledgerCall{
		{"mint", MethodMint, MintArgs{To: "alice", Token: "seat-2"}},
		{"mint", MethodMint, MintArgs{To: "alice", Token: "seat-1"}}, // free again here
		{"op", MethodTransferFrom, TransferFromArgs{From: "dave", To: "op", Token: "seat-1"}},
		{"alice", MethodTransfer, TransferArgs{To: "bob", Token: "seat-2"}},
	}
	n := NewNFT("bank")
	runLedger(t, n, nftA)
	n.Reset("mint")
	got = runLedger(t, n, nftB)
	freshNFT := NewNFT("mint")
	if want := runLedger(t, freshNFT, nftB); !reflect.DeepEqual(got, want) {
		t.Errorf("NFT receipts after a reset:\n%v\nfresh:\n%v", got, want)
	}
	if !reflect.DeepEqual(n, freshNFT) {
		t.Errorf("NFT registry after a reset %+v, fresh %+v", n, freshNFT)
	}
}
