// Deposit incentives: §9's mechanism-design sketch, made concrete.
//
// "To discourage maliciously joining then aborting deals, a party might
// escrow a small deposit that is lost if that party is the first to cause
// the deal to fail."
//
// The example builds a deposit vault as a *custom user contract* on top
// of the library: each party locks a deposit; after the deal decides, the
// vault settles against a CBC block-subsequence proof. The proof's vote
// replay identifies the decisive abort voter — the first party to cause
// the failure — whose deposit is forfeited to the others. On commit (or
// an abort not attributable to a depositor) everyone is refunded.
//
// This also demonstrates why block proofs earn their keep despite being
// costlier than status certificates (§6.2): only the full vote sequence
// carries the culprit's identity.
package main

import (
	"fmt"
	"log"

	"xdeal"
	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/incentive"
	"xdeal/internal/party"
	"xdeal/internal/token"
)

// runScenario executes the broker deal with deposits and reports the
// vault settlement. When bob deviates by aborting, his deposit is lost.
func runScenario(title string, behaviors map[xdeal.Addr]xdeal.Behavior) {
	const depositAmount = 10
	spec := xdeal.BrokerDeal(2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Seed: 3, Protocol: party.ProtoCBC, F: 1,
		Behaviors: behaviors,
		// Block proofs so the settlement can identify the culprit.
		ProofFormat: party.ProofBlocks,
	})
	if err != nil {
		log.Fatal(err)
	}

	coinChain := w.Chains["coinchain"]
	v := incentive.NewVault("coin", spec.ID, spec.Parties)
	coinChain.MustDeploy("deposit-vault", v)

	// Fund the deposits and lock them before the deal begins. Each stage
	// is drained before the next so approvals precede the transferFrom.
	mustLand := func(r *chain.Receipt) {
		if r.Err != nil {
			log.Fatalf("deposit scenario: transaction %s.%s rejected: %v",
				r.Tx.Contract, r.Tx.Method, r.Err)
		}
	}
	for _, p := range spec.Parties {
		coinChain.Submit(&chain.Tx{Sender: "mint-authority", Contract: "coin",
			Method: token.MethodMint, Label: engine.LabelSetup,
			Args:      token.MintArgs{To: p, Amount: depositAmount},
			OnReceipt: mustLand})
		coinChain.Submit(&chain.Tx{Sender: p, Contract: "coin",
			Method: token.MethodApprove, Label: engine.LabelSetup,
			Args:      token.ApproveArgs{Operator: "deposit-vault", Allowed: true},
			OnReceipt: mustLand})
	}
	w.Sched.Run()
	for _, p := range spec.Parties {
		coinChain.Submit(&chain.Tx{Sender: p, Contract: "deposit-vault",
			Method: incentive.MethodDeposit, Label: party.LabelEscrow,
			Args:      incentive.DepositArgs{Amount: depositAmount},
			OnReceipt: mustLand})
	}
	w.Sched.Run()
	for _, p := range spec.Parties {
		if v.Deposit(p) != depositAmount {
			log.Fatalf("deposit by %s did not land", p)
		}
	}

	// Once the deal has started on the CBC, pin the vault's Dinfo; once
	// decided, settle with a block proof.
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
			coinChain.Submit(&chain.Tx{Sender: "alice", Contract: "deposit-vault",
				Method: incentive.MethodSettle, Label: party.LabelCommit,
				Args:      incentive.SettleArgs{Proof: proof},
				OnReceipt: mustLand})
		}
	})

	coin := w.Fungibles["coinchain/coin-escrow"]
	before := map[xdeal.Addr]uint64{}
	for _, p := range spec.Parties {
		before[p] = coin.BalanceOf(p)
	}

	r := w.Run()

	fmt.Printf("--- %s ---\n", title)
	fmt.Printf("deal outcome: committed=%v aborted=%v\n", r.AllCommitted, r.AllAborted)
	if v.Forfeited() != "" {
		fmt.Printf("vault: %s was first to cause the failure; deposit forfeited\n", v.Forfeited())
	} else {
		fmt.Println("vault: no culprit; all deposits refunded")
	}
	for _, p := range spec.Parties {
		fmt.Printf("  %-6s deposit-adjusted coin delta: %+d\n",
			p, int64(coin.BalanceOf(p))-int64(before[p]))
	}
	fmt.Println()
}

func main() {
	fmt.Println("=== §9 deposit incentives on the CBC protocol ===")
	fmt.Println()
	runScenario("all parties compliant", nil)
	runScenario("bob joins, then aborts immediately", map[xdeal.Addr]xdeal.Behavior{
		"bob": {xdeal.AbortImmediately{}},
	})
}
