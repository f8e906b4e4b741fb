// Package party implements the active agents of the system model (§3):
// autonomous parties that publish entries on blockchains, monitor them
// for changes, and follow (or deviate from) a deal protocol.
//
// The compliant behavior is one code path with explicit deviation
// injection points (Behavior). This mirrors the paper's adversary model:
// a deviating party is not a different kind of machine, it is a party
// that skips or distorts protocol steps wherever it pleases. Property
// tests randomize Behavior to search for safety violations.
package party

import (
	"fmt"
	"slices"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
)

// Protocol selects the commit protocol a party runs.
type Protocol int

// Protocols.
const (
	ProtoTimelock Protocol = iota
	ProtoCBC
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoTimelock:
		return "timelock"
	case ProtoCBC:
		return "cbc"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Transaction labels for per-phase gas accounting (Figure 4 rows).
const (
	LabelEscrow   = "escrow"
	LabelTransfer = "transfer"
	LabelCommit   = "commit"
	LabelAbort    = "abort"
	LabelHedge    = "hedge"
)

// Behavior encodes deviations from the protocol. The zero value is fully
// compliant.
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
// hurt other parties' liveness or safety accounting. Altruistic voting
// and refund-poke skipping by a party with nothing escrowed remain
// compliant; everything else is a deviation.
func (b Behavior) Compliant() bool {
	return !b.SkipEscrow && !b.SkipTransfers && !b.SkipVoting &&
		b.CrashAt == 0 && b.OfflineFrom == 0 &&
		!b.NoForwarding && !b.AbortImmediately && b.CommitThenAbort == 0 &&
		!b.SkipRefundPoke && !b.CorruptInfo && b.EscrowShortfall == 0 &&
		b.SoreLoserThreshold == 0 && !b.Grief
}

// Config wires a party to its environment.
type Config struct {
	Spec *deal.Spec
	// Plan is the deal's index (deal.NewPlan(Spec)), computed once by
	// whoever builds the deal's parties and shared by all of them; nil
	// makes New derive a private one.
	Plan     *deal.Plan
	Protocol Protocol
	Chains   map[chain.ID]*chain.Chain
	Sched    *sim.Scheduler
	Keys     sig.KeyPair
	// Memo signs the party's votes through the world's signature memo
	// (see sig.Memo.Sign); nil signs plainly.
	Memo     *sig.Memo
	Behavior Behavior
	// Patience is how long a CBC party waits for a decision after voting
	// commit before rescinding with an abort vote. Compliance requires
	// Patience ≥ Δ (§6); the engine sets a comfortable default.
	Patience sim.Duration
	// SerializeRounds restores the strict escrow-confirm → transfer →
	// validate → vote sequencing of the paper's Δ-round presentation.
	// Off by default: compliant parties pipeline their submissions —
	// transfers ride on tentative in-flight deposits, validation runs
	// concurrently with outstanding transfers, and receipts arbitrate —
	// which the safety argument permits because claims verify on-chain
	// state post-hoc.
	SerializeRounds bool
	// LabelPrefix prefixes every transaction label the party emits, so
	// gas stays attributable per deal on chains shared by many deals.
	LabelPrefix string
	// Fees decides the priority tip attached to each protocol
	// transaction on chains with a fee market (see fees.go). Nil tips
	// nothing; the engine installs a DeadlineFee default when the
	// world's fee market is enabled.
	Fees FeeEstimator
	// CBCHooks is set for ProtoCBC parties (see cbcdriver.go).
	CBCHooks *CBCHooks
	// Adaptive wires reactive adversary strategies to arena-level state
	// (see adaptive.go): the market oracle the sore loser requires, and
	// the metric callbacks all strategies report through. Usually nil
	// outside arena runs; without it sore losers never trigger, while
	// front-runners and griefers still act (on mempool gossip and
	// escrow events) but go unmetered.
	Adaptive *AdaptiveHooks
	// Hedge wires a Behavior.Hedged party to the world's hedging
	// contracts (see hedge.go); nil leaves the Hedged flag inert. The
	// engine fills it when the world is built with hedging enabled.
	Hedge *HedgeConfig
	// Bundle wires the party to the world's combinatorial block-space
	// auctions (see bundles.go): protocol transactions on bundled
	// chains route into the deal's all-or-nothing bundle, priced by
	// the Bidder. Nil keeps every submission on the loose mempool.
	Bundle *BundleConfig
	// OnValidated, when non-nil, is invoked when the party finishes its
	// validation phase (engine timing metrics).
	OnValidated func(p chain.Addr, at sim.Time)
}

// Party is one autonomous participant executing a deal.
type Party struct {
	Addr chain.Addr
	cfg  Config
	mine *deal.PartyPlan // cfg.Plan.For(Addr)
	// dealArg is the deal id boxed once, so status queries do not
	// allocate a fresh interface value per poll.
	dealArg any

	// BumpMisses counts lost bundle auctions where re-quoting could
	// not raise the standing bid (bundle gone, or already at the
	// bidder's price for the current deadline pressure) — the
	// escalation path ran dry (observability).
	BumpMisses int

	crashed   bool
	validated bool
	voted     bool

	// escrowInfo is the (uncorrupted) Dinfo the party registers with,
	// retained so a failure-driven re-drive can resubmit escrows.
	escrowInfo any
	// redriveArmed dedups the failure-driven retry timer (see
	// scheduleRedrive): at most one pending re-drive at a time.
	redriveArmed bool

	// Outgoing transfer tracking: index into Spec.Transfers.
	submitted map[int]bool // submitted and not known failed
	confirmed map[int]bool // confirmed on chain

	// Escrow obligations submitted/confirmed (by escrow key).
	escrowSubmitted map[string]bool
	escrowConfirmed map[string]bool

	// Timelock: votes known accepted at each incoming escrow.
	acceptedAt map[string]map[chain.Addr]bool
	// Timelock: forwards already attempted, to avoid spamming duplicates.
	forwarded map[string]map[chain.Addr]bool

	// CBC driver state (nil for timelock parties).
	cbcState *cbcState

	// Adaptive strategy state (see adaptive.go).
	soreLoser  bool // sore-loser trigger fired: back out
	griefed    bool // griefer trigger fired: cease duties
	basePrices map[chain.Addr]float64

	// Hedge driver state (see hedge.go), keyed by escrow key.
	hedgeSubmitted map[string]bool // bind published, receipt pending
	hedgeBound     map[string]bool // cover confirmed on chain
	hedgeClaiming  map[string]bool // claim published, receipt pending
	hedgeSettled   map[string]bool // position settled

	// Fee strategy state (see fees.go).
	startedAt sim.Time // deal start, anchors deadline urgency
	feeSpent  uint64   // tips committed by the fee bidder so far

	// Bundle griefer state (see bundles.go): the standing per-slot
	// quote per chain and the budget spent raising it.
	griefQuote map[chain.ID]uint64
	griefSpent uint64

	unsubs []func()
}

// New creates a party. Call Start when the clearing phase delivers the
// deal (the engine does this).
func New(addr chain.Addr, cfg Config) *Party {
	if cfg.Plan == nil {
		cfg.Plan = deal.NewPlan(cfg.Spec)
	}
	return &Party{
		Addr:            addr,
		cfg:             cfg,
		mine:            cfg.Plan.For(addr),
		dealArg:         cfg.Spec.ID,
		submitted:       make(map[int]bool),
		confirmed:       make(map[int]bool),
		escrowSubmitted: make(map[string]bool),
		escrowConfirmed: make(map[string]bool),
		acceptedAt:      make(map[string]map[chain.Addr]bool),
		forwarded:       make(map[string]map[chain.Addr]bool),
		hedgeSubmitted:  make(map[string]bool),
		hedgeBound:      make(map[string]bool),
		hedgeClaiming:   make(map[string]bool),
		hedgeSettled:    make(map[string]bool),
	}
}

// Behavior returns the party's deviation configuration.
func (p *Party) Behavior() Behavior { return p.cfg.Behavior }

// Compliant reports whether this party follows the protocol.
func (p *Party) Compliant() bool { return p.cfg.Behavior.Compliant() }

// Start begins protocol execution: the market-clearing service has
// broadcast the deal and the party decides to participate.
func (p *Party) Start() {
	p.startedAt = p.cfg.Sched.Now()
	if p.cfg.Behavior.CrashAt > 0 {
		p.cfg.Sched.At(p.cfg.Behavior.CrashAt, func() { p.crashed = true })
	}
	if p.cfg.Behavior.OfflineUntil > p.cfg.Behavior.OfflineFrom && p.cfg.Behavior.OfflineFrom > 0 {
		// A party coming back online re-reads the public chain state it
		// missed. It cannot recover the vote *events* it slept through
		// (that is the §5.3 offline risk watchtowers exist for), but it
		// can resume its own duties: pending transfers, validation, and
		// claiming decided outcomes.
		p.cfg.Sched.At(p.cfg.Behavior.OfflineUntil, func() { p.wake() })
	}
	p.subscribeChains()
	p.startAdaptive()
	switch p.cfg.Protocol {
	case ProtoTimelock:
		p.startTimelock()
	case ProtoCBC:
		p.startCBC()
	}
}

// wake resumes duties after an offline window.
func (p *Party) wake() {
	if !p.active() {
		return
	}
	p.tryTransfers()
	p.checkValidation()
	p.maybeVote()
	if p.cfg.Protocol == ProtoCBC && p.cbcState != nil && p.cbcState.started {
		if d := p.cfg.CBCHooks.CBC.Deal(p.cfg.Spec.ID); d != nil && d.Status != escrow.StatusActive {
			p.claimOutcome(d.Status, false, 0)
		}
	}
}

// Stop detaches the party from all chains (end of simulation cleanup).
func (p *Party) Stop() {
	for _, u := range p.unsubs {
		u()
	}
	p.unsubs = nil
}

// active reports whether the party is currently acting (not crashed, not
// in its offline window).
func (p *Party) active() bool {
	if p.crashed {
		return false
	}
	b := p.cfg.Behavior
	if b.OfflineFrom > 0 {
		now := p.cfg.Sched.Now()
		if now >= b.OfflineFrom && now < b.OfflineUntil {
			return false
		}
	}
	return true
}

// subscribeChains attaches the party's event handler to every chain it
// is motivated to monitor, for the events of its deal that concern it.
func (p *Party) subscribeChains() {
	for _, id := range p.mine.Chains {
		c, ok := p.cfg.Chains[id]
		if !ok {
			continue
		}
		p.unsubs = append(p.unsubs, c.SubscribeTopic(p.cfg.Spec.ID, p.wants, func(ev chain.Event) {
			if !p.active() {
				return
			}
			p.onChainEvent(ev)
		}))
	}
}

// wants is the party's delivery filter: the events onChainEvent can act
// on — an escrow, transfer, outcome or (under the timelock protocol)
// accepted vote of its own deal. The chain offers it only events whose
// topic is the deal (see subscribeChains); it checks the topic anyway, so
// it is the whole filter on its own. The chain evaluates it when the
// event is published, so it reads only the event and the party's fixed
// configuration; anything that changes as the party runs (active,
// backedOut) is checked at delivery. onChainEvent ignores every event
// wants rejects — TestFilterRejectsOnlyIgnoredEvents holds the two in
// step.
func (p *Party) wants(ev chain.Event) bool {
	switch ev.Kind {
	case escrow.EventEscrowed, escrow.EventTransferred, escrow.EventCommitted, escrow.EventAborted:
	case timelock.EventVoteAccepted:
		if p.cfg.Protocol != ProtoTimelock {
			return false
		}
	default:
		return false
	}
	return ev.Topic == p.cfg.Spec.ID
}

// onChainEvent reacts to escrow contract events.
func (p *Party) onChainEvent(ev chain.Event) {
	switch ev.Kind {
	case escrow.EventEscrowed, escrow.EventTransferred:
		if ev.Topic != p.cfg.Spec.ID {
			return
		}
		p.adaptiveOnEscrowEvent(ev)
		p.tryTransfers()
		p.checkValidation()
	case escrow.EventCommitted, escrow.EventAborted:
		if ev.Topic != p.cfg.Spec.ID {
			return
		}
		p.hedgeOnOutcome(ev)
	default:
		if p.cfg.Protocol == ProtoTimelock {
			p.onTimelockEvent(ev)
		}
	}
}

// escrowView queries an escrow contract's public state.
func (p *Party) escrowView(a deal.AssetRef) (escrow.View, bool) {
	c, ok := p.cfg.Chains[a.Chain]
	if !ok {
		return escrow.View{}, false
	}
	res, err := c.Query(a.Escrow, escrow.MethodStatus, p.dealArg)
	if err != nil {
		return escrow.View{}, false
	}
	v, ok := res.(escrow.View)
	return v, ok
}

// submit publishes a transaction on the chain hosting the asset, tipped
// by the party's fee estimator.
func (p *Party) submit(a deal.AssetRef, method, label string, args any, onReceipt func(*chain.Receipt)) {
	c, ok := p.cfg.Chains[a.Chain]
	if !ok {
		return
	}
	p.submitTx(c, a.Escrow, method, label, args, p.tipFor(c, label), onReceipt)
}

// submitTx publishes with an explicit tip (the fee bidder's race path
// overrides the estimator with its counterbid).
func (p *Party) submitTx(c *chain.Chain, contract chain.Addr, method, label string, args any, tip uint64, onReceipt func(*chain.Receipt)) {
	tx := &chain.Tx{
		Sender:   p.Addr,
		Contract: contract,
		Method:   method,
		Args:     args,
		Label:    p.cfg.LabelPrefix + label,
		Tip:      tip,
		OnReceipt: func(r *chain.Receipt) {
			if onReceipt != nil {
				onReceipt(r)
			}
		},
	}
	if p.bundling(c) {
		// Bundled worlds replace per-transaction tips with the deal
		// bundle's aggregate bid (see bundles.go): the transaction
		// joins the bundle and the bid is quoted per slot.
		p.submitViaBundle(c, tx)
		return
	}
	c.Submit(tx)
}

// performEscrows places the party's outgoing assets in escrow.
func (p *Party) performEscrows(info any) {
	if p.cfg.Behavior.SkipEscrow || !p.active() || p.backedOut() {
		return
	}
	p.escrowInfo = info // pre-corruption, so a re-drive re-corrupts identically
	if p.cfg.Behavior.CorruptInfo {
		info = corruptInfo(info)
	}
	for _, ob := range p.mine.Obligations {
		ob := ob
		if s := p.cfg.Behavior.EscrowShortfall; s > 0 {
			if ob.Amount > 0 {
				if s >= ob.Amount {
					ob.Amount = 0
					continue // withholds the entire leg
				}
				ob.Amount -= s
			} else if len(ob.Tokens) > 0 {
				ob.Tokens = ob.Tokens[:len(ob.Tokens)-1]
				if len(ob.Tokens) == 0 {
					continue
				}
			}
		}
		key := ob.Key
		if p.escrowSubmitted[key] {
			continue
		}
		// A hedged party refuses to lock an unhedged fungible deposit:
		// hedgeReady binds cover first and re-enters performEscrows once
		// the position is confirmed.
		if !p.hedgeReady(ob, info) {
			continue
		}
		p.escrowSubmitted[key] = true
		p.submit(ob.Asset, escrow.MethodEscrow, LabelEscrow, escrow.EscrowArgs{
			Deal:    p.cfg.Spec.ID,
			Parties: p.cfg.Spec.Parties,
			Info:    info,
			Amount:  ob.Amount,
			Tokens:  ob.Tokens,
		}, func(r *chain.Receipt) {
			if r.Err != nil {
				p.escrowSubmitted[key] = false // allow retry on next event
				p.scheduleRedrive()            // ...and guarantee one happens
				return
			}
			p.escrowConfirmed[key] = true
			if p.active() {
				p.tryTransfers()
				p.checkValidation()
				p.maybeVote()
			}
		})
	}
	if !p.cfg.SerializeRounds {
		// Pipelined round: outgoing transfers ride on the tentative
		// holdings of the deposits just published instead of waiting for
		// the escrow confirmation round-trip.
		p.tryTransfers()
	}
}

// tryTransfers submits any outgoing transfer whose tentative holdings are
// in place. Spec order; failures re-enable retry on the next event.
func (p *Party) tryTransfers() {
	if p.cfg.Behavior.SkipTransfers || !p.active() || p.backedOut() {
		return
	}
	spec := p.cfg.Spec
	// Track how much we are about to spend per escrow so one event does
	// not double-submit competing transfers.
	reserved := make(map[string]uint64)
	for _, i := range p.mine.Sends {
		if p.submitted[i] {
			continue
		}
		t, key := spec.Transfers[i], p.cfg.Plan.TransferKeys[i]
		// The pipelined window: the party's own deposit at this escrow is
		// published but unconfirmed. Its tentative holdings count toward
		// affordability — if the in-flight deposit is rejected the
		// transfer fails with an error receipt and the re-drive retries
		// both, so optimism costs a retry, never safety. A shortfall
		// deviant's actual deposit may be smaller than the obligation
		// credited here; the over-estimate only makes it submit transfers
		// the contract then rejects, bounded by the retry horizon.
		var pending *deal.Obligation
		if !p.cfg.SerializeRounds && p.escrowSubmitted[key] && !p.escrowConfirmed[key] {
			pending = p.mine.Obligation(key)
		}
		view, ok := p.escrowView(t.Asset)
		if !ok || (!view.Exists() && pending == nil) {
			continue
		}
		affordable := false
		if t.Asset.Kind == deal.Fungible {
			have := view.OnCommitOf(p.Addr)
			if pending != nil {
				have += pending.Amount
			}
			if have >= reserved[key]+t.Asset.Amount {
				affordable = true
				reserved[key] += t.Asset.Amount
			}
		} else {
			affordable = view.CommitOwnerOf(t.Asset.ID) == p.Addr ||
				(pending != nil && slices.Contains(pending.Tokens, t.Asset.ID))
		}
		if !affordable {
			continue
		}
		p.submitted[i] = true
		args := escrow.TransferArgs{Deal: spec.ID, To: t.To}
		if t.Asset.Kind == deal.Fungible {
			args.Amount = t.Asset.Amount
		} else {
			args.Tokens = []string{t.Asset.ID}
		}
		p.submit(t.Asset, escrow.MethodTransfer, LabelTransfer, args, func(r *chain.Receipt) {
			if r.Err != nil {
				p.submitted[i] = false
				// Retry on the rejection receipt itself: the usual cause is
				// the party's own deposit sorting after the optimistic
				// transfer inside one block, and by the time the receipt
				// arrives that deposit has landed — waiting for the Δ-spaced
				// re-drive would stall an otherwise-ready deal. The re-drive
				// stays armed as the backstop for rejections whose cause
				// outlives this block. Horizon-gated like the re-drive: a
				// permanently rejected transfer must not resubmit every
				// block forever and keep the scheduler alive past the point
				// where the protocol could still use it.
				if p.active() && p.retryLive() {
					p.tryTransfers()
				}
				p.scheduleRedrive()
				return
			}
			p.confirmed[i] = true
			if p.active() {
				p.checkValidation()
				p.maybeVote()
			}
		})
	}
}

// outgoingDone reports whether all of the party's outgoing duties are
// confirmed on chain.
func (p *Party) outgoingDone() bool {
	for i := range p.mine.Obligations {
		if !p.escrowConfirmed[p.mine.Obligations[i].Key] {
			return false
		}
	}
	for _, i := range p.mine.Sends {
		if !p.confirmed[i] {
			return false
		}
	}
	return true
}

// checkValidation runs the validation phase (§4.1): the party checks
// that its incoming assets are properly escrowed and the deal
// information is correct. Pipelined (the default), it runs concurrently
// with the party's own in-flight escrows and transfers, using a
// conservative arrival bound that can never overstate what reached the
// contract; under SerializeRounds it keeps the paper's strict gating on
// the party's own confirmed duties. The verdict feeds maybeVote, which
// still waits for the last outgoing receipt before any vote is cast.
func (p *Party) checkValidation() {
	if p.validated || !p.active() || p.backedOut() {
		return
	}
	if p.cfg.SerializeRounds && !p.outgoingDone() &&
		!p.cfg.Behavior.SkipEscrow && !p.cfg.Behavior.SkipTransfers {
		return
	}
	for i := range p.mine.Incoming {
		in := &p.mine.Incoming[i]
		view, ok := p.escrowView(in.Asset)
		if !ok || !view.Exists() || !p.infoSatisfactory(view) {
			return
		}
		if in.Asset.Kind == deal.Fungible {
			// The contract state is cumulative, so recover the incoming
			// total conservatively: the party's tentative balance, minus
			// its own recorded deposit, plus the outgoing it has locally
			// confirmed. The chain has applied at least the locally
			// confirmed outgoing, so this bound trails the true arrived
			// amount and can never overstate it; once every outgoing
			// receipt is in it equals the strict post-transfer check.
			arrived := int64(view.OnCommitOf(p.Addr)) -
				int64(view.DepositedOf(p.Addr)) +
				int64(p.confirmedOutgoingAmount(in.Key))
			if arrived < int64(in.FungibleIn) {
				return
			}
		} else {
			for _, id := range in.TokensIn {
				if view.CommitOwnerOf(id) == p.Addr {
					continue
				}
				if p.passedOnToken(in.Key, id) {
					// Received and passed on; the confirmed onward
					// transfer certifies the token arrived here first.
					continue
				}
				return
			}
		}
	}
	p.validated = true
	if p.cfg.OnValidated != nil {
		p.cfg.OnValidated(p.Addr, p.cfg.Sched.Now())
	}
	p.maybeVote()
}

// confirmedOutgoingAmount sums the fungible amounts of the party's
// outgoing transfers at one escrow whose receipts have confirmed.
func (p *Party) confirmedOutgoingAmount(key string) uint64 {
	var total uint64
	for _, i := range p.mine.Sends {
		if t := &p.cfg.Spec.Transfers[i]; p.cfg.Plan.TransferKeys[i] == key &&
			t.Asset.Kind == deal.Fungible && p.confirmed[i] {
			total += t.Asset.Amount
		}
	}
	return total
}

// passedOnToken reports whether the party's onward transfer of a
// non-fungible token at this escrow has confirmed on chain — the
// contract only applies a transfer by the current tentative owner, so
// the confirmation proves the token arrived here before moving on.
func (p *Party) passedOnToken(key, id string) bool {
	for _, i := range p.mine.Sends {
		if t := &p.cfg.Spec.Transfers[i]; p.cfg.Plan.TransferKeys[i] == key &&
			t.Asset.Kind == deal.NonFungible && t.Asset.ID == id && p.confirmed[i] {
			return true
		}
	}
	return false
}

// maybeVote casts the party's commit votes once both halves of the
// pipelined round have landed: the validation verdict and the last
// outgoing receipt. Whichever lands second triggers the vote. Parties
// shirking their outgoing duties (SkipEscrow/SkipTransfers deviants)
// are not gated on duties they will never complete — they may still
// vote, as before.
func (p *Party) maybeVote() {
	if !p.validated {
		return
	}
	b := p.cfg.Behavior
	if !p.outgoingDone() && !b.SkipEscrow && !b.SkipTransfers {
		return
	}
	p.castVotes()
}

// scheduleRedrive arms a one-shot, Δ-spaced retry of the party's
// outgoing duties after a failed receipt. The failure handlers reset
// the submitted flags so any later deal event retries, but a lone
// failure on an otherwise quiet chain would never see that event and
// the deal would idle to its timeout — the re-drive guarantees the
// retry happens regardless. Horizon-gated (retryLive), so a
// permanently failing submission cannot loop past the point where the
// protocol could still use it.
func (p *Party) scheduleRedrive() {
	if p.redriveArmed {
		return
	}
	spacing := p.cfg.Spec.Delta
	if spacing <= 0 {
		spacing = 10
	}
	p.redriveArmed = true
	p.cfg.Sched.After(spacing, func() {
		p.redriveArmed = false
		if !p.active() || p.backedOut() || !p.retryLive() {
			return
		}
		if p.escrowInfo != nil {
			p.performEscrows(p.escrowInfo)
		}
		p.tryTransfers()
		p.checkValidation()
		p.maybeVote()
	})
}

// retryLive bounds the re-drive: retries stop once the protocol can no
// longer use their result — the timelock refund horizon has passed, or
// the CBC deal is decided or the party has rescinded.
func (p *Party) retryLive() bool {
	switch p.cfg.Protocol {
	case ProtoTimelock:
		return p.cfg.Sched.Now() < p.timelockHorizon()
	case ProtoCBC:
		st := p.cbcState
		if st == nil || !st.started || st.gaveUp || st.votedAbort {
			return false
		}
		d := p.cfg.CBCHooks.CBC.Deal(p.cfg.Spec.ID)
		return d == nil || d.Status == escrow.StatusActive
	}
	return false
}

// infoSatisfactory checks the Dinfo and plist recorded at the escrow
// contract against what the clearing phase announced.
func (p *Party) infoSatisfactory(v escrow.View) bool {
	if !v.PartiesEqual(p.cfg.Spec.Parties) {
		return false
	}
	switch p.cfg.Protocol {
	case ProtoTimelock:
		return p.timelockInfoOK(v.Info())
	case ProtoCBC:
		return p.cbcInfoOK(v.Info())
	default:
		return false
	}
}

// castVotes sends the party's commit votes per protocol.
func (p *Party) castVotes() {
	if p.cfg.Behavior.SkipVoting || p.voted || !p.active() || p.backedOut() {
		return
	}
	p.voted = true
	delay := p.cfg.Behavior.VoteDelay
	if delay > 0 {
		p.cfg.Sched.After(delay, func() {
			if p.active() && !p.backedOut() {
				p.sendVotes()
			}
		})
		return
	}
	p.sendVotes()
}

// sendVotes dispatches to the protocol driver.
func (p *Party) sendVotes() {
	switch p.cfg.Protocol {
	case ProtoTimelock:
		p.sendTimelockVotes()
	case ProtoCBC:
		p.sendCBCVote(true)
	}
}
