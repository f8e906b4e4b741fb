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
	if b.Max <= b.Start {
		return b.Start
	}
	if urgency < 0 {
		urgency = 0
	}
	if urgency > 1 {
		urgency = 1
	}
	return b.Start + uint64(float64(b.Max-b.Start)*urgency+0.5)
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

// armBundleGriefer subscribes the bundle-griefing adversary to the
// bundle-bid gossip of every chain it touches. On seeing a rival
// deal's bundle quote, it raises its own deal's per-slot bid one above
// the victim's — out-densifying the victim so the greedy builder
// orders the griefer's bundle first and, in a capacity-constrained
// block, defers the victim's bundle whole. Each raise spends the
// increment from Behavior.BundleBudget (per-slot denominated, like
// the fee bidder's tip budget); when the budget cannot cover an
// overbid the griefer declines, since an underbid loses by
// construction.
func (p *Party) armBundleGriefer() {
	if p.cfg.Bundle == nil {
		return
	}
	own := p.cfg.Spec.ID
	hooks := p.cfg.Adaptive
	for _, id := range p.mine.Chains {
		c, ok := p.cfg.Chains[id]
		if !ok || !c.Bundled() {
			continue
		}
		chainID := id
		p.unsubs = append(p.unsubs, c.SubscribeBundleBids(func(g chain.BundleGossip) {
			if g.Deal == own || !p.active() || p.backedOut() {
				return
			}
			quote := g.PerSlot + 1
			current := p.griefQuote[chainID]
			if quote <= current {
				return // already bidding above this rival
			}
			cost := quote - current
			if budget := p.cfg.Behavior.BundleBudget; budget > 0 && p.griefSpent+cost > budget {
				return // cannot cover the overbid: decline the exclusion
			}
			if !c.BumpBundleBid(own, quote) {
				return // no pending bundle to carry the bid: nothing staked
			}
			if p.griefQuote == nil {
				p.griefQuote = make(map[chain.ID]uint64)
			}
			p.griefQuote[chainID] = quote
			p.griefSpent += cost
			if hooks != nil && hooks.OnBundleGrief != nil {
				hooks.OnBundleGrief(p.Addr, chainID, g.Deal, quote)
			}
		}))
	}
}
