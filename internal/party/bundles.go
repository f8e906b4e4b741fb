package party

import (
	"xdeal/internal/chain"
)

// This file implements the party side of combinatorial block-space
// auctions (see internal/bundle and chain/bundles.go): on bundled
// chains a deal's parties route their protocol transactions into the
// deal's all-or-nothing bundle instead of the loose mempool, and price
// the bundle's per-slot bid on the compliant scale (see bid) —
// escalating as the timelock deadline approaches, and re-escalating
// each time the bundle loses an auction. Per-slot is the bundle's
// density, the exact quantity greedy winner determination ranks by, so
// escalating it escalates the aggregate bid in proportion to however
// many transactions the bundle carries. The bundle-griefing adversary
// plays the same game offensively: it watches rival bundle bids in the
// gossip and outbids a victim deal's density so the victim's whole
// bundle is pushed out of the block, within a budget.

// submitViaBundle routes one protocol transaction into the deal's
// bundle on chain c, quoting the current per-slot price. On each auction
// the bundle loses, the party re-quotes at its then-current deadline
// pressure and bumps the bundle's bid — the compliant escalation path: a
// bundle that keeps losing is a timelock at risk, so it bids its way
// back in.
func (p *Party) submitViaBundle(c *chain.Chain, tx *chain.Tx) {
	c.SubmitBundled(chain.BundleTx{
		Deal:     p.cfg.Spec.ID,
		Tx:       tx,
		PerSlot:  bid(p.urgency()),
		Deadline: p.timelockHorizon(),
		OnAuction: func(won bool, _ int) {
			if won || !p.active() {
				return
			}
			if !c.BumpBundleBid(p.cfg.Spec.ID, bid(p.urgency())) {
				// The re-quote could not raise the standing bid: the
				// bundle is no longer pending, or already at this
				// pressure's price. Nothing is owed; the next lost
				// auction re-quotes.
				return
			}
		},
	})
}

// watchBundleBids feeds the bundle bids of rival deals, gossiped on the
// bundled chains the party touches, to its strategies (the bundle
// griefer's trigger).
func (p *Party) watchBundleBids() {
	for _, id := range p.mine.Chains {
		c, ok := p.cfg.Chains[id]
		if !ok || !c.Bundled() {
			continue
		}
		c.SubscribeBundleBids(func(g chain.BundleGossip) {
			if g.Deal != p.cfg.Spec.ID {
				p.observe(observation{kind: obsBid, bid: g})
			}
		})
	}
}
