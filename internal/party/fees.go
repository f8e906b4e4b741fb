package party

import (
	"xdeal/internal/chain"
	"xdeal/internal/sim"
)

// This file implements party-side fee strategy: how much priority tip a
// party attaches to its protocol transactions on chains with a fee
// market, and the fee-bidding front-runner that weaponizes tips.
//
// Tips buy block position, and block position is protocol time: a vote
// that slips past its timelock deadline because it sat in a congested
// mempool is worthless, so a rational compliant party bids more the
// closer its deadline looms. A fee-bidding adversary plays the same
// game offensively — it outbids the specific transactions it races.

// The compliant bid escalates linearly with deadline pressure, from
// bidStart at deal start to bidMax as the timelock deadline arrives: a
// party's vote is worth more than its tip the moment missing one more
// block would time the vote out. One scale prices both the priority tip
// on a fee-market chain and a deal bundle's per-slot bid on a bundled
// one.
const (
	bidStart = 1
	bidMax   = 16
)

// bid is the compliant price at deadline pressure urgency, which runs
// from 0 (deal just started) to 1 (the deal's overall timelock deadline
// has arrived), clamped, rounded to the nearest unit.
func bid(urgency float64) uint64 {
	return bidStart + uint64(float64(bidMax-bidStart)*min(max(urgency, 0), 1)+0.5)
}

// timelockHorizon is the deal's overall timelock deadline t0 + (N+1)·Δ,
// N the party count, as the hedge cover uses — the contract refund
// floor t0 + N·Δ plus one Δ of poke margin, past which protocol work
// included on chain is worthless. The refund poke fires exactly here,
// and both the fee/bid escalation (urgency) and the bundle deadline
// reported to auctions measure against this one horizon.
func (p *Party) timelockHorizon() sim.Time {
	spec := p.cfg.Spec
	return spec.T0 + sim.Time(len(spec.Parties)+1)*spec.Delta
}

// urgency is the party's deadline pressure: how far it is through the
// window from deal start to the timelock horizon. Pure in (clock, spec).
func (p *Party) urgency() float64 {
	deadline := p.timelockHorizon()
	if deadline <= p.startedAt {
		return 1
	}
	u := float64(p.cfg.Sched.Now()-p.startedAt) / float64(deadline-p.startedAt)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// tipFor is the tip a party attaches to a protocol transaction bound to
// chain c. Chains without a fee market take no tip.
func (p *Party) tipFor(c *chain.Chain) uint64 {
	if c.FeeMarket() == nil {
		return 0
	}
	return bid(p.urgency())
}
