package party

import (
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/hedge"
	"xdeal/internal/sim"
)

// This file implements the party side of the sore-loser defense (Xue &
// Herlihy, wired through internal/hedge): a hedged party binds
// premium-priced cover at the hedging contract paired with each escrow
// *before* locking its fungible deposit there — refusing to lock an
// unhedged asset — and settles its positions once escrows finalize,
// claiming the collateral payout when the deal aborted after its
// capital had been locked past the sore-loser trigger. Hedging is a
// defense, not a deviation, and it is derived rather than configured: a
// party hedges when its world deploys hedging contracts (Config.Hedge)
// and it runs no strategy.

// HedgeConfig wires a hedged party to the world's hedging contracts.
type HedgeConfig struct {
	// Contracts maps escrow keys (AssetRef.Key()) to the hedging
	// contract insuring deposits at that escrow. Escrows without an
	// entry are locked unhedged (nothing to bind against).
	Contracts map[string]chain.Addr
	// Collateral is the bond size as a multiple of the deposit
	// (engine-resolved; hedge.Params.Collateral).
	Collateral float64
	// TriggerDeltas is the sore-loser trigger in Δ units: an abort pays
	// out only when the deposit had been locked at least this long.
	TriggerDeltas int
}

// hedging reports whether the hedge driver is armed: the world deploys
// hedging contracts and the party runs no strategy.
func (p *Party) hedging() bool {
	return p.cfg.Hedge != nil && !p.Adversary()
}

// hedgeReady gates one escrow obligation on its cover: true means the
// deposit may lock now (hedged, or not hedgeable), false means the bind
// is still in flight and the escrow must wait. On confirmation the bind
// receipt re-enters performEscrows, so a gated deposit locks as soon as
// its cover exists.
func (p *Party) hedgeReady(ob deal.Obligation) bool {
	if !p.hedging() || ob.Amount == 0 {
		// Non-fungible legs are not hedged: sore-loser loss is the
		// fungible capital timelocked for nothing, and an aborted NFT
		// escrow returns the exact token, not depreciated cash.
		return true
	}
	key := ob.Key
	if p.hedgeBound[key] {
		return true
	}
	haddr, ok := p.cfg.Hedge.Contracts[key]
	if !ok {
		return true // no hedging contract at this escrow: lock unhedged
	}
	if !p.hedgeSubmitted[key] {
		p.bindHedge(key, haddr, ob)
	}
	return false
}

// bindHedge publishes the bind transaction for one obligation.
func (p *Party) bindHedge(key string, haddr chain.Addr, ob deal.Obligation) {
	c, ok := p.cfg.Chains[ob.Asset.Chain]
	if !ok {
		return
	}
	spec := p.cfg.Spec
	collateral := uint64(float64(ob.Amount)*p.cfg.Hedge.Collateral + 0.5)
	if collateral == 0 {
		collateral = 1
	}
	trigger := p.cfg.Hedge.TriggerDeltas
	if trigger <= 0 {
		trigger = 1
	}
	p.hedgeSubmitted[key] = true
	hooks := p.cfg.Adaptive
	p.submitTx(c, haddr, hedge.MethodBind, LabelHedge, hedge.BindArgs{
		Deal:       spec.ID,
		Collateral: collateral,
		Depth:      len(spec.Parties) + 1, // the t0 + (N+1)·Δ horizon
		MinLock:    sim.Duration(trigger) * spec.Delta,
	}, p.tipFor(c), func(r *chain.Receipt) {
		if r.Err != nil {
			p.hedgeSubmitted[key] = false // allow retry
			return
		}
		p.hedgeBound[key] = true
		if br, ok := r.Result.(hedge.BindResult); ok && hooks != nil && hooks.OnHedgeBound != nil {
			hooks.OnHedgeBound(p.Addr, collateral, br.Premium, br.Vol, br.Streak)
		}
		p.performEscrows(p.escrowInfo) // the cover exists: release the deposit it gated
	})
}

// hedgeOnOutcome reacts to an escrow finalizing (commit or abort
// event): every bound position at that escrow settles — the payout
// claim of a sore-loser victim, or the premium refund of cover that
// went unused. Even a backed-out or griefing party would claim here
// (settling is self-interested), but only a party that runs no
// strategy hedges.
func (p *Party) hedgeOnOutcome(ev chain.Event) {
	if !p.hedging() || !p.active() {
		return
	}
	for _, ob := range p.mine.Obligations {
		if ob.Asset.Chain == ev.Chain && ob.Asset.Escrow == ev.Contract {
			p.claimHedge(ob.Asset, ob.Key)
		}
	}
}

// claimHedge settles the party's position at one escrow, once.
func (p *Party) claimHedge(a deal.AssetRef, key string) {
	if !p.hedgeBound[key] || p.hedgeSettled[key] || p.hedgeClaiming[key] {
		return
	}
	haddr, ok := p.cfg.Hedge.Contracts[key]
	if !ok {
		return
	}
	c, ok := p.cfg.Chains[a.Chain]
	if !ok {
		return
	}
	hooks := p.cfg.Adaptive
	p.hedgeClaiming[key] = true
	p.submitTx(c, haddr, hedge.MethodClaim, LabelHedge, hedge.ClaimArgs{
		Deal: p.cfg.Spec.ID,
	}, p.tipFor(c), func(r *chain.Receipt) {
		p.hedgeClaiming[key] = false
		if r.Err != nil {
			return // e.g. raced the finalize; retried on the next event
		}
		p.hedgeSettled[key] = true
		if cr, ok := r.Result.(hedge.ClaimResult); ok && hooks != nil && hooks.OnHedgeSettled != nil {
			hooks.OnHedgeSettled(p.Addr, cr.Payout, cr.Amount)
		}
	})
}
