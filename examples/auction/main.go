// Auction: the §9 example that, like brokering, cannot be expressed as an
// atomic swap — "Alice transfers assets she did not own at the start."
//
// A seller auctions a ticket. Bidders commit to sealed bids (commit-reveal,
// per the paper's footnote: "Bob and Carol should use a commit-reveal
// pattern to ensure neither can observe the other's bid"), then reveal.
// The settlement — winner pays, winner receives the ticket, the loser's
// escrowed bid returns — is executed as a single cross-chain deal on the
// CBC protocol, so either the whole settlement happens or none of it.
package main

import (
	"fmt"
	"log"

	"xdeal"
	"xdeal/internal/sig"
)

// sealedBid is a commit-reveal bid: the bidder first publishes
// H(amount ‖ salt), then reveals both.
type sealedBid struct {
	bidder xdeal.Addr
	amount uint64
	salt   string
}

func (b sealedBid) commitment() [32]byte {
	return sig.HashStrings("bid", string(b.bidder), fmt.Sprint(b.amount), b.salt)
}

func main() {
	fmt.Println("=== §9 ticket auction ===")
	fmt.Println()

	// Bidding phase (off the deal; the clearing service's job).
	bids := []sealedBid{
		{bidder: "winner", amount: 120, salt: "w-salt"},
		{bidder: "loser", amount: 80, salt: "l-salt"},
	}
	// Commit phase: only the hashes are published.
	commitments := make(map[xdeal.Addr][32]byte, len(bids))
	fmt.Println("sealed commitments:")
	for _, b := range bids {
		c := b.commitment()
		commitments[b.bidder] = c
		fmt.Printf("  %-8s -> %x…\n", b.bidder, c[:8])
	}

	// Reveal phase: each revealed (amount, salt) must hash to the
	// published commitment; the high bid wins.
	var winner, loser sealedBid
	for _, revealed := range bids {
		if revealed.commitment() != commitments[revealed.bidder] {
			log.Fatalf("bidder %s revealed a bid that does not match its commitment", revealed.bidder)
		}
		if revealed.amount > winner.amount {
			winner, loser = revealed, winner
		} else if revealed.amount > loser.amount {
			loser = revealed
		}
	}
	fmt.Printf("\nrevealed: winner=%s (%d coins), loser=%s (%d coins)\n\n",
		winner.bidder, winner.amount, loser.bidder, loser.amount)

	// Settlement as one atomic deal: both bids move to the seller, the
	// seller returns the losing bid and hands over the ticket. The seller
	// transfers assets (the loser's refund) that it did not own at the
	// start — a deal, not a swap.
	spec := xdeal.AuctionDeal(2000, 1000, winner.amount, loser.amount)
	fmt.Println(spec.Matrix())

	r, err := xdeal.Run(spec, xdeal.Options{Seed: 7, Protocol: xdeal.CBC, F: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.Summary())

	coinKey := "coinchain/coin-escrow"
	fmt.Printf("\nsettlement: seller %+d coins, winner %+d, loser %+d; ticket -> %s\n",
		r.FungibleDelta["seller"][coinKey],
		r.FungibleDelta["winner"][coinKey],
		r.FungibleDelta["loser"][coinKey],
		r.FinalTokenOwners["ticketchain/ticket-escrow"]["lot-1"])

	// A sore loser cannot wreck the settlement for the compliant parties:
	// if the loser refuses to sign off (its refund nets its bid to zero,
	// so it has nothing to escrow — but its vote is still required), the
	// deal aborts atomically and nobody loses assets.
	spec = xdeal.AuctionDeal(2000, 1000, winner.amount, loser.amount)
	r, err = xdeal.Run(spec, xdeal.Options{
		Seed: 8, Protocol: xdeal.CBC, F: 1,
		Behaviors: map[xdeal.Addr]xdeal.Behavior{
			"loser": {xdeal.AbortImmediately{}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- the sore loser votes abort ---")
	fmt.Print(r.Summary())
	if len(r.SafetyViolations) == 0 && r.AllAborted {
		fmt.Println("settlement aborted atomically; nobody lost assets")
	}
}
