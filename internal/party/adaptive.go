package party

import (
	"slices"

	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/escrow"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
)

// This file holds what the adaptive strategies (strategy.go) observe and
// report through: parties that deviate in *reaction* to observed world
// state — market prices and mempool gossip — rather than on a fixed
// schedule. The sore-loser strategy is the headline attack of Xue &
// Herlihy ("Hedging Against Sore Loser Attacks in Cross-Chain
// Transactions"): a party aborts a deal mid-flight because the market
// moved against the price it agreed to, leaving counterparties' assets
// timelocked for nothing.

// PriceOracle exposes the current market price of a token. Only relative
// drift matters; the arena implements it with a deterministic seeded
// price walk.
type PriceOracle interface {
	Price(tok chain.Addr) float64
}

// AdaptiveHooks wires adaptive strategies to arena-level state: the
// market they watch and the callbacks that report their triggers for
// interference metrics. All callbacks run on the simulation thread.
type AdaptiveHooks struct {
	// Oracle is the market price feed sore losers watch. Nil disables
	// sore-loser triggers.
	Oracle PriceOracle
	// OnSoreLoser reports a sore-loser trigger: party p backed out of
	// its deal because tok's price drifted by drift (fractional).
	OnSoreLoser func(p chain.Addr, tok chain.Addr, drift float64)
	// OnFrontRun reports a front-run race: party p raced an observed
	// pending transaction with method; bid is the tip it attached (zero
	// for plain gossip racers on FIFO chains, the overbid for fee
	// bidders); won is whether p's transaction executed successfully
	// (it beat the victim to the state change).
	OnFrontRun func(p chain.Addr, method string, bid uint64, won bool)
	// OnBundleGrief reports a bundle-griefing raise: party p bumped its
	// deal's per-slot bid to perSlot on chain ch to exclude victimDeal's
	// bundle from the block (see bundles.go). Whether the exclusion
	// lands is decided by the auction; arenas match these attempts
	// against auction records to count successes.
	OnBundleGrief func(p chain.Addr, ch chain.ID, victimDeal string, perSlot uint64)
	// OnHedgeBound reports a hedged party's confirmed cover: party p
	// paid premium for a collateral bond, priced at the hosting chain's
	// realized base-fee volatility vol and the deal's realized
	// bundle-loss streak at bind (see internal/hedge).
	OnHedgeBound func(p chain.Addr, collateral, premium uint64, vol float64, streak int)
	// OnHedgeSettled reports a settled hedge position: a sore-loser
	// payout of amount when payout is true, a premium refund (net of
	// the pool's retention) otherwise.
	OnHedgeSettled func(p chain.Addr, payout bool, amount uint64)
}

// pollPrices watches the market price of every asset the party pays
// out, at Δ/4 cadence until the deal's overall timelock deadline (past
// it the escrows refund anyway and regret is moot), observing each one's
// drift from its price at deal start. It needs Config.Adaptive's oracle,
// and stops once the party has voted (committed: too late to renege) or
// backed out.
func (p *Party) pollPrices() {
	hooks := p.cfg.Adaptive
	if hooks == nil || hooks.Oracle == nil {
		return
	}
	spec, oracle := p.cfg.Spec, hooks.Oracle
	var toks []chain.Addr // sorted watch list: deterministic trigger order
	for _, ob := range p.mine.Obligations {
		toks = append(toks, ob.Asset.Token)
	}
	if len(toks) == 0 {
		return // nothing at stake, nothing to regret
	}
	slices.Sort(toks)
	toks = slices.Compact(toks)
	base := make([]float64, len(toks))
	for i, tok := range toks {
		base[i] = oracle.Price(tok)
	}
	cadence := spec.Delta / 4
	if cadence <= 0 {
		cadence = 1
	}
	horizon := spec.T0 + sim.Time(len(spec.Parties)+1)*spec.Delta
	var poll func()
	poll = func() {
		if p.backedOut() || p.voted || !p.active() {
			return
		}
		for i, tok := range toks {
			if b := base[i]; b > 0 {
				p.observe(observation{kind: obsPrice, token: tok, drift: (oracle.Price(tok) - b) / b})
				if p.backedOut() {
					return
				}
			}
		}
		if p.cfg.Sched.Now() < horizon {
			p.cfg.Sched.After(cadence, poll)
		}
	}
	p.cfg.Sched.After(cadence, poll)
}

// watchMempools feeds the gossip of the party's deal in the mempools of
// every chain it touches to its strategies: the pending transactions
// wantsGossip admits.
func (p *Party) watchMempools() {
	for _, id := range p.mine.Chains {
		c, ok := p.cfg.Chains[id]
		if !ok {
			continue
		}
		c.SubscribeMempool(p.cfg.Spec.ID, p.wantsGossip, func(ptx chain.PendingTx) {
			p.observe(observation{kind: obsGossip, gossip: ptx})
		})
	}
}

// wantsGossip is the front-runner's mempool filter: another party's
// commit vote (timelock) or decision proof (CBC) for its own deal — the
// only gossip race acts on. Like wants, it reads only the transaction and
// the party's fixed configuration; whether the party is active or has
// backed out is decided at delivery.
func (p *Party) wantsGossip(ptx chain.PendingTx) bool {
	if ptx.Sender == p.Addr || ptx.Topic != p.cfg.Spec.ID {
		return false
	}
	switch ptx.Args.(type) {
	case timelock.CommitArgs:
		return p.cfg.Protocol == ProtoTimelock
	case cbc.ProofArgs:
		return p.cfg.Protocol == ProtoCBC
	}
	return false
}

// race is how a front-runner acts on one pending transaction of its deal
// (ignoring any that wantsGossip rejects), without waiting for it to land
// and be observed: it forwards a gossiped vote to its incoming escrows
// that lack it (timelock), or claims an outcome it can verify the CBC
// decided. Its copy may reach the contract first.
func (p *Party) race(ptx chain.PendingTx) {
	if !p.active() || p.backedOut() || !p.wantsGossip(ptx) {
		return
	}
	switch args := ptx.Args.(type) {
	case timelock.CommitArgs:
		if !args.Vote.Contains(string(p.Addr)) { // else already signed on
			p.forwardVote(args.Vote, "")
		}
	case cbc.ProofArgs:
		status := escrow.StatusCommitted
		if ptx.Method == cbc.MethodAbortProof {
			status = escrow.StatusAborted
		}
		if st := p.cbcState; st != nil && st.started {
			if d := p.cfg.CBCHooks.CBC.Deal(p.cfg.Spec.ID); d != nil && d.Status == status {
				p.claimOutcome(status)
			}
		}
	}
}
