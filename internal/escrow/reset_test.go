package escrow

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
)

// outcome is what a receipt says, its error as text.
type outcome struct {
	height uint64
	result any
	err    string
}

// bookScript funds, escrows and transfers coins and tickets in deal id on
// w, returning each receipt's outcome.
func bookScript(w *world, id string) []outcome {
	w.fund("alice", 200)
	w.fund("bob", 0, "seat-1A", "seat-1B")
	var out []outcome
	for _, r := range []struct {
		sender, contract chain.Addr
		method           string
		args             any
	}{
		{"bob", "tix-escrow", MethodEscrow, EscrowArgs{Deal: id, Parties: parties, Info: "info", Tokens: []string{"seat-1A"}}},
		{"alice", "coin-escrow", MethodEscrow, escrowCoins(id, 150)},
		{"bob", "tix-escrow", MethodTransfer, TransferArgs{Deal: id, To: "alice", Tokens: []string{"seat-1A"}}},
		{"alice", "coin-escrow", MethodTransfer, TransferArgs{Deal: id, To: "bob", Amount: 100}},
		{"alice", "coin-escrow", MethodStatus, id},
	} {
		rc := w.call(r.sender, r.contract, r.method, r.args)
		out = append(out, outcome{rc.Height, rc.Result, fmt.Sprint(rc.Err)})
	}
	return out
}

// TestResetEqualsFresh runs deal A on two books, resets them and runs
// deal B on them in a new world: B's receipts and both books afterwards
// must equal B on new books, though A left a deal and a held ticket.
func TestResetEqualsFresh(t *testing.T) {
	coins, tickets := NewBook("coin", deal.Fungible), NewBook("tix", deal.NonFungible)
	bookScript(newWorldOn(coins, tickets), "A")
	coins.Reset("coin", deal.Fungible)
	tickets.Reset("tix", deal.NonFungible)
	got := bookScript(newWorldOn(coins, tickets), "B")
	freshCoins, freshTickets := NewBook("coin", deal.Fungible), NewBook("tix", deal.NonFungible)
	if want := bookScript(newWorldOn(freshCoins, freshTickets), "B"); !reflect.DeepEqual(got, want) {
		t.Errorf("receipts after a reset:\n%v\nfresh:\n%v", got, want)
	}
	if !reflect.DeepEqual(coins, freshCoins) || !reflect.DeepEqual(tickets, freshTickets) {
		t.Errorf("books after a reset %+v %+v, fresh %+v %+v", coins, tickets, freshCoins, freshTickets)
	}
}
