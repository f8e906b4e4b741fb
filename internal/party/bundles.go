package party

import (
	"xdeal/internal/chain"
)

// This file implements the party side of combinatorial block-space
// auctions (see internal/bundle and chain/bundles.go): on bundled
// chains a deal's parties route their protocol transactions into the
// deal's all-or-nothing bundle instead of the loose mempool, and the
// BundleBidder strategy prices the bundle's per-slot bid — escalating
// as the timelock deadline approaches, and re-escalating each time the
// bundle loses an auction. The bundle-griefing adversary plays the
// same game offensively: it watches rival bundle bids in the gossip
// and outbids a victim deal's density so the victim's whole bundle is
// pushed out of the block, within a budget.

// BundleBidder prices a deal bundle's per-slot bid: Start at deal
// start, Max as the timelock deadline arrives (linear in between —
// the bundle sibling of DeadlineFee). Per-slot is the bundle's
// density, the exact quantity greedy winner determination ranks by,
// so escalating it is escalating the aggregate bid proportionally to
// however many transactions the bundle is carrying.
type BundleBidder struct {
	Start uint64
	Max   uint64
}

// PerSlot returns the per-slot quote at the given deadline pressure
// (urgency in [0, 1]).
func (b BundleBidder) PerSlot(urgency float64) uint64 {
	return escalate(b.Start, b.Max, urgency)
}

// BundleConfig wires a party to the world's bundle auctions; the
// engine fills it when the world is built with bundles enabled. Nil
// keeps every submission on the loose mempool.
type BundleConfig struct {
	// Bidder prices the deal bundle's per-slot bid.
	Bidder BundleBidder
}

// bundling reports whether this party routes transactions through the
// deal bundle on chain c.
func (p *Party) bundling(c *chain.Chain) bool {
	return p.cfg.Bundle != nil && c.Bundled()
}

// submitViaBundle routes one protocol transaction into the deal's
// bundle on chain c, quoting the bidder's current per-slot price. On
// each auction the bundle loses, the party re-quotes at its then-
// current deadline pressure and bumps the bundle's bid — the
// compliant escalation path: a bundle that keeps losing is a timelock
// at risk, so it bids its way back in.
func (p *Party) submitViaBundle(c *chain.Chain, tx *chain.Tx) {
	quote := p.cfg.Bundle.Bidder.PerSlot(p.urgency())
	c.SubmitBundled(chain.BundleTx{
		Deal:     p.cfg.Spec.ID,
		Tx:       tx,
		PerSlot:  quote,
		Deadline: p.timelockHorizon(),
		OnAuction: func(won bool, _ int) {
			if won || !p.active() {
				return
			}
			if !c.BumpBundleBid(p.cfg.Spec.ID, p.cfg.Bundle.Bidder.PerSlot(p.urgency())) {
				// The re-quote could not raise the standing bid: either
				// the bundle is no longer pending or the bidder is
				// already at its deadline-pressure price. Record it —
				// a deal that keeps losing auctions with a flat bid is
				// exactly the sore-loser pressure hedging prices.
				p.BumpMisses++
			}
		},
	})
}

// watchBundleBids feeds the bundle bids of rival deals, gossiped on the
// bundled chains the party touches, to its strategies (the bundle
// griefer's trigger).
func (p *Party) watchBundleBids() {
	if p.cfg.Bundle == nil {
		return
	}
	for _, id := range p.mine.Chains {
		c, ok := p.cfg.Chains[id]
		if !ok || !c.Bundled() {
			continue
		}
		p.unsubs = append(p.unsubs, c.SubscribeBundleBids(func(g chain.BundleGossip) {
			if g.Deal != p.cfg.Spec.ID {
				p.observe(observation{kind: obsBid, bid: g})
			}
		}))
	}
}
