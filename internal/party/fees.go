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

// FeeEstimator decides the priority tip a party attaches to a protocol
// transaction. Implementations must be pure functions of their inputs:
// the estimator is consulted inside deterministic simulations.
type FeeEstimator interface {
	// Tip returns the tip for a transaction with phase label `label`,
	// given the target chain's current base fee and the party's
	// deadline pressure: urgency runs from 0 (deal just started) to 1
	// (the deal's overall timelock deadline has arrived).
	Tip(baseFee uint64, label string, urgency float64) uint64
}

// DeadlineFee escalates tips linearly with deadline pressure: Start at
// deal start, Max as the timelock deadline arrives. This is the
// compliant strategy — a party's vote is worth more than its tip the
// moment missing one more block would time the vote out.
type DeadlineFee struct {
	Start uint64
	Max   uint64
}

// Tip implements FeeEstimator.
func (f DeadlineFee) Tip(_ uint64, _ string, urgency float64) uint64 {
	return escalate(f.Start, f.Max, urgency)
}

// escalate interpolates linearly from lo to hi as urgency runs from 0 to
// 1 (clamped), rounding to the nearest unit.
func escalate(lo, hi uint64, urgency float64) uint64 {
	if hi <= lo {
		return lo
	}
	return lo + uint64(float64(hi-lo)*min(max(urgency, 0), 1)+0.5)
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

// tipFor consults the party's fee estimator for a transaction bound to
// chain c. Parties without an estimator (or chains without a fee
// market) tip nothing.
func (p *Party) tipFor(c *chain.Chain, label string) uint64 {
	if p.cfg.Fees == nil {
		return 0
	}
	var base uint64
	if fm := c.FeeMarket(); fm != nil {
		base = fm.BaseFee()
	} else {
		return 0
	}
	return p.cfg.Fees.Tip(base, label, p.urgency())
}
