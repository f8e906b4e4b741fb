package party

import (
	"sort"

	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/escrow"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
)

// This file implements the adaptive adversary strategies of the arena:
// parties that deviate in *reaction* to observed world state — market
// prices and mempool gossip — rather than on a fixed schedule. The
// sore-loser strategy is the headline attack of Xue & Herlihy ("Hedging
// Against Sore Loser Attacks in Cross-Chain Transactions"): a party
// aborts a deal mid-flight because the market moved against the price
// it agreed to, leaving counterparties' assets timelocked for nothing.

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

// backedOut reports whether an adaptive trigger has fired: the party has
// renounced the deal (sore loser) or gone passive (griefer). Both keep
// their refund pokes — backing out is self-interested, not suicidal.
func (p *Party) backedOut() bool { return p.soreLoser || p.griefed }

// startAdaptive arms the party's adaptive strategies at deal start.
func (p *Party) startAdaptive() {
	b := p.cfg.Behavior
	hooks := p.cfg.Adaptive
	if b.SoreLoserThreshold > 0 && hooks != nil && hooks.Oracle != nil {
		p.armSoreLoser()
	}
	if b.FrontRun {
		p.armFrontRunner()
	}
	if b.BundleGrief {
		p.armBundleGriefer()
	}
}

// armSoreLoser records the start prices of every asset the party is
// paying out and polls the market at Δ/4 cadence across the deal's
// lifetime. The moment one of those assets appreciates beyond the
// threshold, the party regrets the agreed price and backs out.
func (p *Party) armSoreLoser() {
	spec := p.cfg.Spec
	p.basePrices = make(map[chain.Addr]float64)
	oracle := p.cfg.Adaptive.Oracle
	var toks []chain.Addr // sorted watch list: deterministic trigger order
	for _, ob := range p.mine.Obligations {
		tok := ob.Asset.Token
		if _, seen := p.basePrices[tok]; !seen {
			p.basePrices[tok] = oracle.Price(tok)
			toks = append(toks, tok)
		}
	}
	if len(toks) == 0 {
		return // nothing at stake, nothing to regret
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	cadence := spec.Delta / 4
	if cadence <= 0 {
		cadence = 1
	}
	// Watch until the deal's overall timelock deadline; past it the
	// escrows refund anyway and regret is moot.
	horizon := spec.T0 + sim.Time(len(spec.Parties)+1)*spec.Delta
	var check func()
	check = func() {
		if p.soreLoser || p.voted || !p.active() {
			return // backed out already, or committed: too late to renege
		}
		for _, tok := range toks {
			base := p.basePrices[tok]
			if base <= 0 {
				continue
			}
			drift := (oracle.Price(tok) - base) / base
			if drift >= p.cfg.Behavior.SoreLoserThreshold {
				p.triggerSoreLoser(tok, drift)
				return
			}
		}
		if p.cfg.Sched.Now() < horizon {
			p.cfg.Sched.After(cadence, check)
		}
	}
	p.cfg.Sched.After(cadence, check)
}

// triggerSoreLoser backs the party out: no more transfers or commit
// votes, and on the CBC an explicit abort vote so the deal dies fast
// (the attacker wants its own deposit back promptly too).
func (p *Party) triggerSoreLoser(tok chain.Addr, drift float64) {
	p.soreLoser = true
	if cb := p.cfg.Adaptive.OnSoreLoser; cb != nil {
		cb(p.Addr, tok, drift)
	}
	if p.cfg.Protocol == ProtoCBC {
		if st := p.cbcState; st != nil && st.started && !st.votedAbort {
			st.votedAbort = true
			p.cfg.CBCHooks.CBC.Publish(cbc.Entry{
				Kind: cbc.EntryAbort, Deal: p.cfg.Spec.ID,
				Party: p.Addr, Hash: st.startHash,
			})
		}
	}
	// Timelock: simply withholding the commit vote suffices — the
	// contracts refund everyone at t0 + N·Δ, and pokeRefunds is armed.
}

// adaptiveOnEscrowEvent feeds escrow events to the griefer trigger: the
// moment another party's deposit lands, a griefing depositor has its
// hostages and goes passive.
func (p *Party) adaptiveOnEscrowEvent(ev chain.Event) {
	if !p.cfg.Behavior.Grief || p.griefed {
		return
	}
	d, ok := ev.Data.(escrow.EscrowedEvent)
	if !ok || d.Party == p.Addr {
		return
	}
	p.griefed = true
}

// armFrontRunner subscribes to its deal's gossip in the mempools of every
// chain the party touches. On seeing another party's pending protocol
// transaction for its deal it races it: forwarding the gossiped vote to
// its own incoming escrows (timelock) or claiming the decided outcome
// itself (CBC) — without waiting for the transaction to land and be
// observed.
func (p *Party) armFrontRunner() {
	for _, id := range p.mine.Chains {
		c, ok := p.cfg.Chains[id]
		if !ok {
			continue
		}
		p.unsubs = append(p.unsubs, c.SubscribeMempool(p.cfg.Spec.ID, p.wantsGossip, p.race))
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

// race reacts to one observed pending transaction, and ignores any that
// wantsGossip rejects. The gossip carries the victim's tip, which is
// what a fee bidder outbids.
func (p *Party) race(ptx chain.PendingTx) {
	if !p.active() || p.backedOut() || !p.wantsGossip(ptx) {
		return
	}
	switch args := ptx.Args.(type) {
	case timelock.CommitArgs:
		p.raceVote(args.Vote, ptx.Tip)
	case cbc.ProofArgs:
		status := escrow.StatusCommitted
		if ptx.Method == cbc.MethodAbortProof {
			status = escrow.StatusAborted
		}
		p.raceClaim(status, ptx.Tip)
	}
}

// raceVote forwards a vote seen in a mempool to every incoming escrow
// that has not accepted it yet — the same forwarding duty as
// onTimelockEvent, but reacting to gossip instead of an accepted-vote
// event, so the front-runner's copy can reach the contract first.
func (p *Party) raceVote(vote sig.PathSig, victimTip uint64) {
	if vote.Contains(string(p.Addr)) {
		return // our own signature is already on the path
	}
	p.forwardVote(vote, "", true, victimTip)
}

// raceClaim presents the CBC's decision to the party's escrow contracts
// in reaction to a counterparty's pending proof transaction. The party
// only claims an outcome it can verify the CBC actually decided.
func (p *Party) raceClaim(status escrow.Status, victimTip uint64) {
	st := p.cbcState
	if st == nil || !st.started {
		return
	}
	d := p.cfg.CBCHooks.CBC.Deal(p.cfg.Spec.ID)
	if d == nil || d.Status != status {
		return
	}
	p.claimOutcome(status, true, victimTip)
}
