// Package party implements the active agents of the system model (§3):
// autonomous parties that publish entries on blockchains, monitor them
// for changes, and follow (or deviate from) a deal protocol.
//
// The compliant behavior is the only code path. Every protocol action it
// takes passes through one seam (act) and every adaptive trigger it sees
// through another (observe); a party's deviations are a short list of
// strategies, built from its Behavior (strategy.go), that drop, delay,
// rewrite or add to what crosses those seams. This mirrors the paper's
// adversary model: a deviating party is not a different kind of machine,
// it is a party that skips or distorts protocol steps wherever it
// pleases. Property tests randomize Behavior to search for safety
// violations.
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

	validated bool
	voted     bool

	// strategies are the party's deviations (nil when compliant);
	// shirks and hedged are fixed with them (see adopt). The strategies
	// take the party down (halted, or asleep in [sleepFrom,
	// sleepUntil)) or back it out (quit).
	strategies            []strategy
	shirks, hedged        bool
	halted, quit          bool
	sleepFrom, sleepUntil sim.Time

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

	// Timelock: votes known accepted at each incoming leg, and forwards
	// already attempted there, to avoid spamming duplicates.
	acceptedAt, forwarded voterSets
	// held keeps the votes whose forward waits for an incoming escrow
	// to be registered (see forwardVote), at most one per voter.
	held []sig.PathSig

	// CBC driver state (never started for timelock parties).
	cbcState cbcState

	// Hedge driver state (see hedge.go), keyed by escrow key.
	hedgeSubmitted map[string]bool // bind published, receipt pending
	hedgeBound     map[string]bool // cover confirmed on chain
	hedgeClaiming  map[string]bool // claim published, receipt pending
	hedgeSettled   map[string]bool // position settled

	startedAt sim.Time // deal start, anchors deadline urgency (fees.go)

	// The chain-event filter and handler subscribeChains registers,
	// built once with the party so that subscribing allocates nothing.
	wantsFn func(chain.Event) bool
	onEvent func(chain.Event)
}

// New creates a party. Call Start when the clearing phase delivers the
// deal (the engine does this).
func New(addr chain.Addr, cfg Config) *Party {
	p := &Party{
		submitted:       make(map[int]bool),
		confirmed:       make(map[int]bool),
		escrowSubmitted: make(map[string]bool),
		escrowConfirmed: make(map[string]bool),
		hedgeSubmitted:  make(map[string]bool),
		hedgeBound:      make(map[string]bool),
		hedgeClaiming:   make(map[string]bool),
		hedgeSettled:    make(map[string]bool),
		cbcState:        cbcState{claimed: make(map[string]bool)},
	}
	p.wantsFn = p.wants
	p.onEvent = func(ev chain.Event) {
		if !p.active() {
			return
		}
		p.onChainEvent(ev)
	}
	p.Reset(addr, cfg)
	return p
}

// Reset makes p the party New(addr, cfg) builds, keeping the storage of
// its maps and voter sets. Everything the party did before is dropped.
// Nothing its run handed out may be kept past the reset, and the chains
// and scheduler it ran on must be reset too, since their subscriptions
// and timers still call into p.
func (p *Party) Reset(addr chain.Addr, cfg Config) {
	if cfg.Plan == nil {
		cfg.Plan = deal.NewPlan(cfg.Spec)
	}
	dealArg := p.dealArg
	if id, ok := dealArg.(string); !ok || id != cfg.Spec.ID {
		dealArg = cfg.Spec.ID
	}
	for _, m := range [...]map[int]bool{p.submitted, p.confirmed} {
		clear(m)
	}
	for _, m := range [...]map[string]bool{p.escrowSubmitted, p.escrowConfirmed,
		p.hedgeSubmitted, p.hedgeBound, p.hedgeClaiming, p.hedgeSettled, p.cbcState.claimed} {
		clear(m)
	}
	clear(p.held)
	*p = Party{
		Addr:            addr,
		cfg:             cfg,
		mine:            cfg.Plan.For(addr),
		dealArg:         dealArg,
		submitted:       p.submitted,
		confirmed:       p.confirmed,
		escrowSubmitted: p.escrowSubmitted,
		escrowConfirmed: p.escrowConfirmed,
		acceptedAt:      p.acceptedAt,
		forwarded:       p.forwarded,
		held:            p.held[:0],
		hedgeSubmitted:  p.hedgeSubmitted,
		hedgeBound:      p.hedgeBound,
		hedgeClaiming:   p.hedgeClaiming,
		hedgeSettled:    p.hedgeSettled,
		cbcState:        cbcState{claimed: p.cbcState.claimed},
		wantsFn:         p.wantsFn,
		onEvent:         p.onEvent,
	}
	legs, voters := len(p.mine.Incoming), len(cfg.Spec.Parties)
	p.acceptedAt.reset(legs, voters)
	p.forwarded.reset(legs, voters)
	p.adopt(cfg.Behavior)
}

// Compliant reports whether this party follows the protocol (see
// Behavior.Compliant).
func (p *Party) Compliant() bool {
	for i := range p.strategies {
		if p.strategies[i].deviant {
			return false
		}
	}
	return true
}

// Adversary reports whether the party runs any deviation strategy,
// including those that keep every protocol duty (late voting, front-
// running, fee and bundle bidding). Hedging is a defense, not one.
func (p *Party) Adversary() bool { return len(p.strategies) > 0 }

// Start begins protocol execution: the market-clearing service has
// broadcast the deal and the party decides to participate.
func (p *Party) Start() {
	p.startedAt = p.cfg.Sched.Now()
	for i := range p.strategies {
		if start := p.strategies[i].start; start != nil {
			start(p)
		}
	}
	p.subscribeChains()
	switch p.cfg.Protocol {
	case ProtoTimelock:
		p.startTimelock()
	case ProtoCBC:
		p.startCBC()
	}
}

// wake resumes duties after an offline window: the party re-reads the
// public chain state it missed. It cannot recover the vote *events* it
// slept through (that is the §5.3 offline risk watchtowers exist for),
// but it can resume its own duties: pending transfers, validation, and
// claiming decided outcomes.
func (p *Party) wake() {
	if !p.active() {
		return
	}
	p.tryTransfers()
	p.checkValidation()
	p.maybeVote()
	if p.cbcState.started {
		p.claimDecided()
	}
}

// active reports whether the party is currently acting: not crashed,
// and not inside its offline window.
func (p *Party) active() bool {
	if p.sleepUntil == 0 {
		return !p.halted
	}
	now := p.cfg.Sched.Now()
	return !p.halted && (now < p.sleepFrom || now >= p.sleepUntil)
}

// backedOut reports whether an adaptive strategy has made the party
// renounce the deal (sore loser) or go passive (griefer). Either way it
// keeps forwarding, claiming and its refund poke — backing out is
// self-interested, not suicidal.
func (p *Party) backedOut() bool { return p.quit }

// act is the action seam: every protocol action the driver proposes
// passes through it, and the party takes *a, as the strategies leave it,
// only if act reports true. A party that is not active takes none
// (arming the refund poke aside: the poke checks for itself when it
// fires), one that has backed out takes no duty, and each strategy may
// then drop or rewrite the action.
func (p *Party) act(a *action) bool {
	if a.kind != actRefund && !p.active() || a.kind <= actVote && p.backedOut() {
		return false
	}
	for i := range p.strategies {
		if hook := p.strategies[i].act; hook != nil {
			var ok bool
			if *a, ok = hook(p, *a); !ok {
				return false
			}
		}
	}
	return true
}

// observe is the observation seam: every adaptive trigger the party sees
// reaches its strategies through it, while the party is active and has
// not backed out.
func (p *Party) observe(o observation) {
	if !p.active() || p.backedOut() {
		return
	}
	for i := range p.strategies {
		if hook := p.strategies[i].observe; hook != nil {
			hook(p, o)
		}
	}
}

// subscribeChains attaches the party's event handler to every chain it
// is motivated to monitor, for the events of its deal that concern it.
func (p *Party) subscribeChains() {
	for _, id := range p.mine.Chains {
		c, ok := p.cfg.Chains[id]
		if !ok {
			continue
		}
		c.SubscribeTopic(p.cfg.Spec.ID, p.wantsFn, p.onEvent)
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
	if ev.Topic != p.cfg.Spec.ID {
		return
	}
	switch ev.Kind {
	case escrow.EventEscrowed, escrow.EventTransferred:
		if p.strategies != nil { // only a strategy watches these
			p.observe(observation{kind: obsEscrow, event: ev.Data})
		}
		p.tryTransfers()
		p.checkValidation()
		if ev.Kind == escrow.EventEscrowed {
			p.forwardHeld()
		}
	case escrow.EventCommitted, escrow.EventAborted:
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
// at the compliant bid (see tipFor).
func (p *Party) submit(a deal.AssetRef, method, label string, args any, onReceipt func(*chain.Receipt)) {
	c, ok := p.cfg.Chains[a.Chain]
	if !ok {
		return
	}
	p.submitTx(c, a.Escrow, method, label, args, p.tipFor(c), onReceipt)
}

// ignoreReceipt observes a receipt no one asked for.
func ignoreReceipt(*chain.Receipt) {}

// submitTx publishes with an explicit tip (the fee bidder's race path
// overrides the compliant bid with its counterbid).
func (p *Party) submitTx(c *chain.Chain, contract chain.Addr, method, label string, args any, tip uint64, onReceipt func(*chain.Receipt)) {
	if onReceipt == nil {
		onReceipt = ignoreReceipt // the delay stream draws for every observed receipt
	}
	tx := &chain.Tx{
		Sender:    p.Addr,
		Contract:  contract,
		Method:    method,
		Args:      args,
		Label:     p.cfg.LabelPrefix + label,
		Tip:       tip,
		OnReceipt: onReceipt,
	}
	if c.Bundled() {
		// Bundled chains replace per-transaction tips with the deal
		// bundle's aggregate bid (see bundles.go): the transaction
		// joins the bundle and the bid is quoted per slot.
		p.submitViaBundle(c, tx)
		return
	}
	c.Submit(tx)
}

// performEscrows places the party's outgoing assets in escrow,
// registering the deal with Dinfo info.
func (p *Party) performEscrows(info any) {
	round := action{kind: actEscrow, info: info}
	if !p.act(&round) {
		return
	}
	p.escrowInfo = info // as proposed, so a re-drive passes the seam afresh
	for _, ob := range p.mine.Obligations {
		leg := action{kind: actDeposit, leg: ob}
		if !p.act(&leg) {
			continue
		}
		ob := leg.leg
		key := ob.Key
		if p.escrowSubmitted[key] {
			continue
		}
		// A hedged party refuses to lock an unhedged fungible deposit:
		// hedgeReady binds cover first and re-enters performEscrows once
		// the position is confirmed.
		if !p.hedgeReady(ob) {
			continue
		}
		p.escrowSubmitted[key] = true
		p.submit(ob.Asset, escrow.MethodEscrow, LabelEscrow, escrow.EscrowArgs{
			Deal:    p.cfg.Spec.ID,
			Parties: p.cfg.Spec.Parties,
			Info:    round.info,
			Amount:  ob.Amount,
			Tokens:  ob.Tokens,
		}, func(r *chain.Receipt) {
			if r.Err != nil {
				p.escrowSubmitted[key] = false // allow retry on next event
				p.scheduleRedrive()            // ...and guarantee one happens
				return
			}
			p.escrowConfirmed[key] = true
			p.tryTransfers()
			p.checkValidation()
			p.maybeVote()
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
	if !p.act(&action{kind: actTransfer}) {
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
				if p.retryLive() {
					p.tryTransfers()
				}
				p.scheduleRedrive()
				return
			}
			p.confirmed[i] = true
			p.checkValidation()
			p.maybeVote()
		})
	}
}

// outgoingDone reports whether all of the party's outgoing duties are
// confirmed on chain — or whether it shirks one of them for good
// (SkipEscrow, SkipTransfers), and so waits on none.
func (p *Party) outgoingDone() bool {
	if p.shirks {
		return true
	}
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
	if p.cfg.SerializeRounds && !p.outgoingDone() {
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
// shirking their outgoing duties are not gated on duties they will never
// complete (see outgoingDone) — they may still vote.
func (p *Party) maybeVote() {
	if p.validated && p.outgoingDone() {
		p.castVotes()
	}
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
		st := &p.cbcState
		if !st.started || st.gaveUp || st.votedAbort {
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

// castVotes sends the party's commit votes per protocol, once.
func (p *Party) castVotes() {
	if p.voted {
		return
	}
	vote := action{kind: actVote}
	if !p.act(&vote) {
		return
	}
	p.voted = true
	if vote.delay > 0 {
		held := vote // declared here, so only a held vote is captured
		p.cfg.Sched.After(held.delay, func() {
			if p.active() && !p.backedOut() {
				p.sendVotes(held)
			}
		})
		return
	}
	p.sendVotes(vote)
}

// sendVotes dispatches to the protocol driver.
func (p *Party) sendVotes(vote action) {
	switch p.cfg.Protocol {
	case ProtoTimelock:
		p.sendTimelockVotes(vote.wide)
	case ProtoCBC:
		p.sendCBCVote(vote)
	}
}
