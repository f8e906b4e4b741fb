package token

import (
	"errors"
	"testing"
	"testing/quick"

	"xdeal/internal/chain"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// world bundles a chain with a scheduler for token tests.
type world struct {
	c     *chain.Chain
	sched *sim.Scheduler
}

func newWorld(t *testing.T) *world {
	t.Helper()
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{
		ID:            "coinchain",
		BlockInterval: 10,
		Delays:        chain.SyncPolicy{Min: 1, Max: 3},
		Schedule:      gas.DefaultSchedule(),
	}, sched, sim.NewRNG(1))
	return &world{c: c, sched: sched}
}

// call submits a tx and returns its receipt after running the simulation.
func (w *world) call(sender chain.Addr, contract chain.Addr, method string, args any) *chain.Receipt {
	var rcpt *chain.Receipt
	w.c.Submit(&chain.Tx{Sender: sender, Contract: contract, Method: method, Args: args,
		Label: "test", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.sched.Run()
	return rcpt
}

func TestFungibleMintAndBalance(t *testing.T) {
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)

	r := w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 500})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if f.BalanceOf("alice") != 500 {
		t.Fatalf("alice balance = %d, want 500", f.BalanceOf("alice"))
	}
	if f.TotalSupply() != 500 {
		t.Fatalf("supply = %d, want 500", f.TotalSupply())
	}
}

func TestFungibleMintOnlyByMinter(t *testing.T) {
	w := newWorld(t)
	w.c.MustDeploy("coin", NewFungible("bank"))
	r := w.call("mallory", "coin", MethodMint, MintArgs{To: "mallory", Amount: 1 << 60})
	if r.Err == nil {
		t.Fatal("non-minter minted tokens")
	}
}

func TestFungibleTransfer(t *testing.T) {
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)
	w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 100})

	r := w.call("alice", "coin", MethodTransfer, TransferArgs{To: "bob", Amount: 40})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if f.BalanceOf("alice") != 60 || f.BalanceOf("bob") != 40 {
		t.Fatalf("balances alice=%d bob=%d, want 60/40", f.BalanceOf("alice"), f.BalanceOf("bob"))
	}
}

func TestFungibleTransferInsufficient(t *testing.T) {
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)
	w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 10})
	r := w.call("alice", "coin", MethodTransfer, TransferArgs{To: "bob", Amount: 11})
	if !errors.Is(r.Err, ErrInsufficientBalance) {
		t.Fatalf("err = %v, want ErrInsufficientBalance", r.Err)
	}
	if f.BalanceOf("alice") != 10 {
		t.Fatal("failed transfer mutated balance")
	}
}

func TestFungibleTransferFromRequiresApproval(t *testing.T) {
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)
	w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 100})

	r := w.call("escrow", "coin", MethodTransferFrom,
		TransferFromArgs{From: "alice", To: "escrow", Amount: 50})
	if !errors.Is(r.Err, ErrNotApproved) {
		t.Fatalf("err = %v, want ErrNotApproved", r.Err)
	}

	w.call("alice", "coin", MethodApprove, ApproveArgs{Operator: "escrow", Allowed: true})
	r = w.call("escrow", "coin", MethodTransferFrom,
		TransferFromArgs{From: "alice", To: "escrow", Amount: 50})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if f.BalanceOf("escrow") != 50 {
		t.Fatalf("escrow balance = %d, want 50", f.BalanceOf("escrow"))
	}
}

func TestFungibleApprovalRevocation(t *testing.T) {
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)
	w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 100})
	w.call("alice", "coin", MethodApprove, ApproveArgs{Operator: "escrow", Allowed: true})
	w.call("alice", "coin", MethodApprove, ApproveArgs{Operator: "escrow", Allowed: false})
	r := w.call("escrow", "coin", MethodTransferFrom,
		TransferFromArgs{From: "alice", To: "escrow", Amount: 1})
	if !errors.Is(r.Err, ErrNotApproved) {
		t.Fatalf("err = %v, want ErrNotApproved after revocation", r.Err)
	}
}

func TestFungibleSelfTransferFromAllowed(t *testing.T) {
	// The owner may always move its own funds via transferFrom.
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)
	w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 100})
	r := w.call("alice", "coin", MethodTransferFrom,
		TransferFromArgs{From: "alice", To: "bob", Amount: 5})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if f.BalanceOf("bob") != 5 {
		t.Fatal("self transferFrom failed")
	}
}

func TestFungibleTransferCostsTwoWrites(t *testing.T) {
	// §7.1 counts the inner token movement as 2 storage writes.
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)
	w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 100})

	before := w.c.Meter().Snapshot()
	w.call("alice", "coin", MethodTransfer, TransferArgs{To: "bob", Amount: 1})
	delta := w.c.Meter().Snapshot().Sub(before)
	if delta.Counts[gas.OpWrite] != 2 {
		t.Fatalf("transfer writes = %d, want 2", delta.Counts[gas.OpWrite])
	}
}

func TestFungibleBalanceOfMethod(t *testing.T) {
	w := newWorld(t)
	f := NewFungible("bank")
	w.c.MustDeploy("coin", f)
	w.call("bank", "coin", MethodMint, MintArgs{To: "alice", Amount: 77})
	res, err := w.c.Query("coin", MethodBalanceOf, chain.Addr("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if res.(uint64) != 77 {
		t.Fatalf("balanceOf = %v, want 77", res)
	}
}

func TestFungibleBadArgs(t *testing.T) {
	w := newWorld(t)
	w.c.MustDeploy("coin", NewFungible("bank"))
	r := w.call("alice", "coin", MethodTransfer, "wrong type")
	if !errors.Is(r.Err, chain.ErrBadArgs) {
		t.Fatalf("err = %v, want ErrBadArgs", r.Err)
	}
	r = w.call("alice", "coin", "bogus", nil)
	if !errors.Is(r.Err, chain.ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", r.Err)
	}
}

func TestNFTMintAndOwnership(t *testing.T) {
	w := newWorld(t)
	n := NewNFT("theater")
	w.c.MustDeploy("tix", n)
	r := w.call("theater", "tix", MethodMint, MintArgs{To: "bob", Token: "seat-1A"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if n.OwnerOf("seat-1A") != "bob" {
		t.Fatalf("owner = %s, want bob", n.OwnerOf("seat-1A"))
	}
}

func TestNFTMintDuplicateRejected(t *testing.T) {
	w := newWorld(t)
	w.c.MustDeploy("tix", NewNFT("theater"))
	w.call("theater", "tix", MethodMint, MintArgs{To: "bob", Token: "seat-1A"})
	r := w.call("theater", "tix", MethodMint, MintArgs{To: "carol", Token: "seat-1A"})
	if !errors.Is(r.Err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", r.Err)
	}
}

func TestNFTTransferByOwner(t *testing.T) {
	w := newWorld(t)
	n := NewNFT("theater")
	w.c.MustDeploy("tix", n)
	w.call("theater", "tix", MethodMint, MintArgs{To: "bob", Token: "seat-1A"})
	r := w.call("bob", "tix", MethodTransfer, TransferArgs{To: "carol", Token: "seat-1A"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if n.OwnerOf("seat-1A") != "carol" {
		t.Fatal("transfer did not change owner")
	}
}

func TestNFTTransferByNonOwnerRejected(t *testing.T) {
	w := newWorld(t)
	n := NewNFT("theater")
	w.c.MustDeploy("tix", n)
	w.call("theater", "tix", MethodMint, MintArgs{To: "bob", Token: "seat-1A"})
	r := w.call("mallory", "tix", MethodTransfer, TransferArgs{To: "mallory", Token: "seat-1A"})
	if !errors.Is(r.Err, ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", r.Err)
	}
	if n.OwnerOf("seat-1A") != "bob" {
		t.Fatal("theft succeeded")
	}
}

func TestNFTTransferFromWithOperator(t *testing.T) {
	w := newWorld(t)
	n := NewNFT("theater")
	w.c.MustDeploy("tix", n)
	w.call("theater", "tix", MethodMint, MintArgs{To: "bob", Token: "seat-1A"})

	r := w.call("escrow", "tix", MethodTransferFrom,
		TransferFromArgs{From: "bob", To: "escrow", Token: "seat-1A"})
	if !errors.Is(r.Err, ErrNotApproved) {
		t.Fatalf("err = %v, want ErrNotApproved", r.Err)
	}

	w.call("bob", "tix", MethodApprove, ApproveArgs{Operator: "escrow", Allowed: true})
	r = w.call("escrow", "tix", MethodTransferFrom,
		TransferFromArgs{From: "bob", To: "escrow", Token: "seat-1A"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if n.OwnerOf("seat-1A") != "escrow" {
		t.Fatal("operator transferFrom failed")
	}
}

func TestNFTTransferUnknownToken(t *testing.T) {
	w := newWorld(t)
	w.c.MustDeploy("tix", NewNFT("theater"))
	r := w.call("bob", "tix", MethodTransfer, TransferArgs{To: "carol", Token: "ghost"})
	if !errors.Is(r.Err, ErrUnknownToken) {
		t.Fatalf("err = %v, want ErrUnknownToken", r.Err)
	}
}

func TestNFTOwnerOfQuery(t *testing.T) {
	w := newWorld(t)
	w.c.MustDeploy("tix", NewNFT("theater"))
	w.call("theater", "tix", MethodMint, MintArgs{To: "bob", Token: "seat-1A"})
	res, err := w.c.Query("tix", MethodOwnerOf, "seat-1A")
	if err != nil {
		t.Fatal(err)
	}
	if res.(chain.Addr) != "bob" {
		t.Fatalf("ownerOf = %v, want bob", res)
	}
	if _, err := w.c.Query("tix", MethodOwnerOf, "ghost"); err == nil {
		t.Fatal("ownerOf unminted token succeeded")
	}
}

func TestQuickFungibleSupplyConserved(t *testing.T) {
	// Property: arbitrary transfer sequences never change total supply,
	// and no balance goes negative (enforced by uint64 + checks).
	prop := func(ops []struct {
		From, To uint8
		Amount   uint16
	}) bool {
		w := newWorldQuick()
		f := NewFungible("bank")
		w.c.MustDeploy("coin", f)
		holders := []chain.Addr{"a", "b", "c", "d"}
		for _, h := range holders {
			w.call(chain.Addr("bank"), "coin", MethodMint, MintArgs{To: h, Amount: 1000})
		}
		for _, op := range ops {
			from := holders[int(op.From)%len(holders)]
			to := holders[int(op.To)%len(holders)]
			w.call(from, "coin", MethodTransfer, TransferArgs{To: to, Amount: uint64(op.Amount)})
		}
		var total uint64
		for _, h := range holders {
			total += f.BalanceOf(h)
		}
		return total == 4000 && f.TotalSupply() == 4000
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// newWorldQuick is newWorld without the *testing.T (quick properties).
func newWorldQuick() *world {
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{
		ID:            "coinchain",
		BlockInterval: 10,
		Delays:        chain.SyncPolicy{Min: 1, Max: 3},
		Schedule:      gas.DefaultSchedule(),
	}, sched, sim.NewRNG(1))
	return &world{c: c, sched: sched}
}

func TestQuickNFTSingleOwner(t *testing.T) {
	// Property: a token always has exactly one owner regardless of the
	// transfer sequence attempted (§4: "An asset can have only one owner
	// at a time").
	prop := func(ops []struct{ Sender, To uint8 }) bool {
		w := newWorldQuick()
		n := NewNFT("theater")
		w.c.MustDeploy("tix", n)
		holders := []chain.Addr{"a", "b", "c"}
		w.call("theater", "tix", MethodMint, MintArgs{To: "a", Token: "T"})
		for _, op := range ops {
			sender := holders[int(op.Sender)%len(holders)]
			to := holders[int(op.To)%len(holders)]
			w.call(sender, "tix", MethodTransfer, TransferArgs{To: to, Token: "T"})
		}
		owner := n.OwnerOf("T")
		for _, h := range holders {
			if h == owner {
				return true
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
