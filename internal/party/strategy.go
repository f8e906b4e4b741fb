package party

import (
	"fmt"
	"math"

	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
)

// This file is the one place that decides what a deviation is. The
// compliant driver takes every protocol action through one seam (act)
// and feeds every adaptive trigger through another (observe). A
// deviating party is that same driver plus a short list of strategies,
// built once in New from its Behavior, that drop, delay, rewrite or add
// to the actions at those seams — the paper's adversary (§3) is any party
// that departs from the protocol, and every such departure is one of
// these four. No other file of the package reads a Behavior field
// (TestPartyDriversReadNoBehaviorField).

// Behavior is the JSON form of a party's deviations from the protocol,
// and the constructor of its strategies (see strategies). The zero value
// is fully compliant.
type Behavior struct {
	// Shared deviations.
	SkipEscrow     bool         // never escrow outgoing assets
	SkipTransfers  bool         // never perform tentative transfers
	SkipVoting     bool         // never vote commit
	SkipRefundPoke bool         // never reclaim timed-out escrows
	CrashAt        sim.Time     // >0: cease all activity at this time
	OfflineFrom    sim.Time     // >0: drop all observations in window
	OfflineUntil   sim.Time     //     [OfflineFrom, OfflineUntil)
	VoteDelay      sim.Duration // delay own commit votes
	// CorruptInfo registers the deal at escrow contracts with wrong
	// Dinfo, trying to poison the contract state other parties validate.
	CorruptInfo bool
	// EscrowShortfall makes the party under-escrow. Semantics are per
	// leg, not a per-deal total: every fungible obligation is shorted by
	// this amount independently (a party owing at two escrows shorts
	// both), and a leg no larger than the shortfall is withheld
	// entirely. Non-fungible obligations withhold one token per escrow
	// instead. The ranged obligation is copied before adjustment, so the
	// Spec's own obligation accounting is never mutated.
	EscrowShortfall uint64

	// Timelock-specific deviations.
	NoForwarding bool // observe others' votes but never forward them
	Altruistic   bool // send own vote to every escrow contract directly

	// CBC-specific deviations.
	AbortImmediately bool         // vote abort instead of commit
	CommitThenAbort  sim.Duration // >0: rescind this soon after committing

	// Adaptive deviations: strategies that react to observed market and
	// mempool state rather than deviating on a fixed schedule. The
	// sore loser needs a price feed, so it acts only when
	// Config.Adaptive supplies an Oracle; front-running and griefing
	// observe ordinary chain state and work in any world. Their metric
	// callbacks fire only when Config.Adaptive provides them.

	// SoreLoserThreshold > 0 makes the party a sore loser (Xue &
	// Herlihy): it watches the market price of the assets it is paying
	// out, and once one drifts up by this fraction from its price at
	// deal start — the deal is now a bad trade for it — it backs out:
	// no further transfers, no commit vote, an abort vote on the CBC.
	SoreLoserThreshold float64
	// FrontRun makes the party race observed pending transactions: it
	// watches the mempools of its chains and, on seeing another party's
	// protocol transaction for its deal, immediately forwards the vote
	// or claims the outcome itself instead of waiting to observe the
	// transaction land. Front-running keeps every protocol duty, so it
	// stays compliant — but it perturbs who pays gas and when deals
	// finalize, which is why the arena counts it as an adversary.
	FrontRun bool
	// FeeBid upgrades a front-runner to fee bidding (needs FrontRun and
	// a chain fee market to matter): instead of merely reacting faster,
	// it attaches a tip one above the observed victim transaction's, so
	// the block builder orders its race ahead of the transaction it is
	// racing. Each bid spends from FeeBudget; when the budget cannot
	// cover an overbid the party declines the race.
	FeeBid bool
	// FeeBudget caps a fee bidder's total tip spend; 0 means unlimited.
	FeeBudget uint64
	// Grief makes the party a griefing depositor: it escrows normally,
	// then ceases all further participation the moment it observes a
	// counterparty's deposit — maximizing how long others' assets stay
	// locked while keeping its own refund poke.
	Grief bool
	// BundleGrief makes the party a bundle-griefing adversary (needs a
	// bundled world to matter, see bundles.go): it watches rival deal
	// bundles in the bundle-bid gossip and raises its own deal's
	// per-slot bid one above a victim's, so a capacity-constrained
	// block defers the victim's whole bundle. Griefing at bundle
	// granularity is what makes exclusion expensive to resist: the
	// victim must outbid the attack across its entire bundle, not one
	// transaction. Like front-running, the griefer keeps every
	// protocol duty, so it stays compliant; the arena still counts it
	// as an adversary.
	BundleGrief bool
	// BundleBudget caps the bundle griefer's total per-slot bid
	// increments (the same denomination as the fee bidder's tip
	// budget); 0 means unlimited.
	BundleBudget uint64

	// Hedged arms the sore-loser defense (Xue & Herlihy): the party
	// refuses to lock an unhedged fungible deposit — it first binds
	// premium-priced cover at the hedging contract paired with the
	// escrow (see internal/hedge and Config.Hedge) — and settles its
	// positions when escrows finalize, claiming the collateral payout
	// when a deal aborted after its capital was locked past the
	// sore-loser trigger. Hedging is a defense, not a deviation: a
	// hedged party keeps every protocol duty and stays compliant.
	Hedged bool
}

// Compliant reports whether the behavior deviates in any way that can
// hurt other parties' liveness or safety accounting: whether none of its
// strategies breaks a protocol duty. Altruistic and late voting, front-
// running and bundle griefing keep every duty and stay compliant.
func (b Behavior) Compliant() bool {
	var p Party
	p.adopt(b)
	return p.Compliant()
}

// Validate rejects a behavior a party could not act on as written — a
// field that configures nothing on its own, or a value outside its
// domain — so a scenario cannot name a party deviating while it behaves
// compliantly. The error names the field.
func (b Behavior) Validate() error {
	switch {
	case b.CrashAt < 0:
		return fmt.Errorf("CrashAt %d is negative", b.CrashAt)
	case b.OfflineFrom < 0:
		return fmt.Errorf("OfflineFrom %d is negative", b.OfflineFrom)
	case b.OfflineFrom > 0 && b.OfflineUntil <= b.OfflineFrom:
		return fmt.Errorf("OfflineFrom %d needs a later OfflineUntil (got %d)", b.OfflineFrom, b.OfflineUntil)
	case b.OfflineFrom == 0 && b.OfflineUntil != 0:
		return fmt.Errorf("OfflineUntil %d needs an OfflineFrom", b.OfflineUntil)
	case b.VoteDelay < 0:
		return fmt.Errorf("VoteDelay %d is negative", b.VoteDelay)
	case b.CommitThenAbort < 0:
		return fmt.Errorf("CommitThenAbort %d is negative", b.CommitThenAbort)
	case !(b.SoreLoserThreshold >= 0) || math.IsInf(b.SoreLoserThreshold, 1):
		return fmt.Errorf("SoreLoserThreshold %v is not a finite fraction ≥ 0", b.SoreLoserThreshold)
	case b.FeeBid && !b.FrontRun:
		return fmt.Errorf("FeeBid needs FrontRun")
	case b.FeeBudget != 0 && !b.FeeBid:
		return fmt.Errorf("FeeBudget %d needs FeeBid", b.FeeBudget)
	case b.BundleBudget != 0 && !b.BundleGrief:
		return fmt.Errorf("BundleBudget %d needs BundleGrief", b.BundleBudget)
	}
	return nil
}

// actionKind names the protocol actions that pass through the seam.
type actionKind uint8

// Action kinds. The duties — escrow through vote — are the actions a
// party that has backed out stops taking.
const (
	actEscrow   actionKind = iota // a round of deposits, registering the Dinfo
	actDeposit                    // one escrow leg of that round
	actTransfer                   // a round of tentative transfers
	actVote                       // the party's own vote
	actForward                    // relaying another party's timelock vote
	actClaim                      // presenting the CBC's decision
	actGiveUp                     // the CBC abort vote once patience runs out
	actRefund                     // arming the timelock refund poke
)

// action is one protocol step the compliant driver proposes; strategies
// may rewrite the fields of its kind.
type action struct {
	kind  actionKind
	info  any             // actEscrow: the Dinfo to register
	leg   deal.Obligation // actDeposit: the leg to lock
	abort bool            // actVote: vote abort instead of commit (CBC)
	wide  bool            // actVote: to every escrow, not only incoming (timelock)
	delay sim.Duration    // actVote: how long to hold the vote
	// rescind > 0 (actVote, CBC) votes abort this soon after committing.
	rescind sim.Duration
	// actForward, actClaim: the target chain, the tip to attach, and an
	// observer of the transaction's receipt (nil: none).
	on   *chain.Chain
	tip  uint64
	done func(*chain.Receipt)
}

// observation is one adaptive trigger, of one of four kinds. It travels
// by value, so observing allocates nothing.
type observation struct {
	kind   observationKind
	event  any                // obsEscrow: an escrow event's payload
	gossip chain.PendingTx    // obsGossip: a pending transaction of the deal
	bid    chain.BundleGossip // obsBid: a rival deal's bundle bid
	token  chain.Addr         // obsPrice: a token the party pays out,
	drift  float64            // and its fractional drift since deal start
}

// observationKind names the adaptive triggers.
type observationKind uint8

// Observation kinds: what the party watches (see adaptive.go).
const (
	obsEscrow observationKind = iota // escrow events of its deal
	obsGossip                        // its deal's gossip in the mempools
	obsBid                           // rival bundle bids (bundled worlds)
	obsPrice                         // market prices (with an oracle)
)

// strategy is one deviation: hooks on the party's seams, each optional.
type strategy struct {
	// deviant marks a strategy that breaks a protocol duty, so the
	// party is not Compliant.
	deviant bool
	// shirks marks a strategy that drops an outgoing duty for good: the
	// party's validation and vote then wait on none of its duties.
	shirks  bool
	start   func(p *Party)                          // at deal start
	act     func(p *Party, a action) (action, bool) // false drops a
	observe func(p *Party, o observation)
}

// adopt builds the party's strategies from its behavior. A compliant
// behavior builds none. Hedging is a defense, not a deviation: it arms
// the hedge driver and builds no strategy.
func (p *Party) adopt(b Behavior) {
	p.strategies = b.strategies()
	p.hedged = b.Hedged
	for i := range p.strategies {
		p.shirks = p.shirks || p.strategies[i].shirks
	}
}

// strategies builds the strategies the behavior configures, in a fixed
// order: the order their timers and subscriptions are armed and their
// hooks run. The vote rewrites — altruistic or late voting, aborting,
// rescinding — share one strategy.
func (b Behavior) strategies() []strategy {
	var s []strategy
	add := func(st strategy) { s = append(s, st) }
	drop := func(kind actionKind) {
		shirks := kind == actEscrow || kind == actTransfer
		add(strategy{deviant: true, shirks: shirks, act: func(_ *Party, a action) (action, bool) {
			return a, a.kind != kind
		}})
	}
	rewrite := func(kind actionKind, deviant bool, f func(action) (action, bool)) {
		add(strategy{deviant: deviant, act: func(_ *Party, a action) (action, bool) {
			if a.kind != kind {
				return a, true
			}
			return f(a)
		}})
	}
	if b.CrashAt > 0 {
		add(strategy{deviant: true, start: func(p *Party) {
			p.cfg.Sched.After(b.CrashAt-p.cfg.Sched.Now(), func() { p.halted = true })
		}})
	}
	if b.OfflineFrom > 0 {
		add(strategy{deviant: true, start: func(p *Party) {
			p.sleepFrom, p.sleepUntil = b.OfflineFrom, b.OfflineUntil
			p.cfg.Sched.After(b.OfflineUntil-p.cfg.Sched.Now(), p.wake)
		}})
	}
	for _, d := range []struct {
		on   bool
		kind actionKind
	}{
		{b.SkipEscrow, actEscrow}, {b.SkipTransfers, actTransfer}, {b.SkipVoting, actVote},
		{b.SkipRefundPoke, actRefund}, {b.NoForwarding, actForward},
	} {
		if d.on {
			drop(d.kind)
		}
	}
	if b.CorruptInfo {
		// The party keeps the clean Dinfo (escrowInfo), so a re-drive
		// corrupts it once again, identically.
		rewrite(actEscrow, true, func(a action) (action, bool) {
			switch info := a.info.(type) {
			case timelock.Info:
				info.Delta++
				a.info = info
			case cbc.Info:
				info.StartHash[0] ^= 0xff
				a.info = info
			}
			return a, true
		})
	}
	if short := b.EscrowShortfall; short > 0 {
		// The leg is the action's copy: the plan is never touched.
		rewrite(actDeposit, true, func(a action) (action, bool) {
			if a.leg.Amount > 0 {
				if short >= a.leg.Amount {
					return a, false
				}
				a.leg.Amount -= short
			} else if n := len(a.leg.Tokens); n > 0 {
				a.leg.Tokens = a.leg.Tokens[:n-1]
				return a, n > 1
			}
			return a, true
		})
	}
	if b.Altruistic || b.VoteDelay > 0 || b.AbortImmediately || b.CommitThenAbort > 0 {
		rewrite(actVote, b.AbortImmediately || b.CommitThenAbort > 0, func(a action) (action, bool) {
			a.wide, a.delay = b.Altruistic, b.VoteDelay
			a.abort, a.rescind = b.AbortImmediately, b.CommitThenAbort
			return a, true
		})
	}
	if b.SoreLoserThreshold > 0 {
		add(strategy{deviant: true,
			start: func(p *Party) { p.pollPrices() },
			observe: func(p *Party, o observation) {
				if o.kind != obsPrice || o.drift < b.SoreLoserThreshold {
					return
				}
				p.quit = true
				if cb := p.cfg.Adaptive.OnSoreLoser; cb != nil {
					cb(p.Addr, o.token, o.drift)
				}
				p.rescind()
			},
		})
	}
	if b.FrontRun {
		add(b.frontRunner())
	}
	if b.Grief {
		add(strategy{deviant: true, observe: func(p *Party, o observation) {
			if d, ok := o.event.(escrow.EscrowedEvent); ok && d.Party != p.Addr {
				p.quit = true
			}
		}})
	}
	if b.BundleGrief {
		add(b.bundleGriefer())
	}
	return s
}

// frontRunner races the gossip it observes (see race). While racing it
// marks the forwards and claims that race, so their receipts report
// through Config.Adaptive (success: its copy beat the raced transaction;
// plain races bid 0), and a fee bidder rewrites their tip — or drops a
// race its budget cannot cover, since an underbid loses by construction.
func (b Behavior) frontRunner() strategy {
	var victim chain.PendingTx // the transaction being raced, while racing
	racing, spent := false, uint64(0)
	return strategy{
		start: func(p *Party) { p.watchMempools() },
		observe: func(p *Party, o observation) {
			if o.kind == obsGossip {
				victim, racing = o.gossip, true
				p.race(o.gossip)
				racing = false
			}
		},
		act: func(p *Party, a action) (action, bool) {
			if !racing || a.kind != actForward && a.kind != actClaim {
				return a, true
			}
			var bid uint64
			if b.FeeBid && a.on.FeeMarket() != nil {
				if bid = victim.Tip + 1; b.FeeBudget > 0 && spent+bid > b.FeeBudget {
					return a, false
				}
				spent += bid
				a.tip = bid
			}
			if hooks := p.cfg.Adaptive; hooks != nil && hooks.OnFrontRun != nil {
				method := victim.Method
				a.done = func(r *chain.Receipt) { hooks.OnFrontRun(p.Addr, method, bid, r.Err == nil) }
			}
			return a, true
		},
	}
}

// bundleGriefer raises its deal's per-slot bundle bid one above each
// rival bid it observes, within BundleBudget; it declines a raise the
// budget cannot cover, since an underbid loses by construction.
func (b Behavior) bundleGriefer() strategy {
	quotes := make(map[chain.ID]uint64) // standing quote per chain
	var spent uint64
	return strategy{
		start: func(p *Party) { p.watchBundleBids() },
		observe: func(p *Party, o observation) {
			g := o.bid
			if o.kind != obsBid {
				return
			}
			quote, current := g.PerSlot+1, quotes[g.Chain]
			if quote <= current {
				return // already bidding above this rival
			}
			cost := quote - current
			if b.BundleBudget > 0 && spent+cost > b.BundleBudget {
				return
			}
			if !p.cfg.Chains[g.Chain].BumpBundleBid(p.cfg.Spec.ID, quote) {
				return // no pending bundle to carry the bid: nothing staked
			}
			quotes[g.Chain] = quote
			spent += cost
			if hooks := p.cfg.Adaptive; hooks != nil && hooks.OnBundleGrief != nil {
				hooks.OnBundleGrief(p.Addr, g.Chain, g.Deal, quote)
			}
		},
	}
}
