package party

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"

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
// these four. Each kind of deviation is declared once, in the kinds
// table; no other file names a kind or reads its parameters
// (TestPartyDriversReadNoBehaviorField).

// Behavior is a party's deviations from the protocol: a set of kinds,
// each named at most once, such as Behavior{Crash{At: 700}}. A party
// arms its strategies in the order of the kinds table, whatever the
// list's order. An empty Behavior is fully compliant. The JSON form lists
// one-key objects, a kind's name over its parameters:
// [{"crash": {"at": 700}}, {"skip-voting": {}}].
type Behavior []Deviation

// Deviation is one kind of departure from the protocol, carrying only
// its own parameters: one of the types below.
type Deviation interface{ deviation() }

// The kinds of deviation. A JSON parameter tagged omitempty may be left
// out; every other one must be given.
type (
	// Crash ceases all activity at At.
	Crash struct {
		At sim.Time `json:"at"`
	}
	// Offline drops all observations in [From, Until).
	Offline struct {
		From  sim.Time `json:"from"`
		Until sim.Time `json:"until"`
	}
	SkipEscrow     struct{} // never escrow outgoing assets
	SkipTransfers  struct{} // never perform tentative transfers
	SkipVoting     struct{} // never vote commit
	SkipRefundPoke struct{} // never reclaim timed-out escrows
	NoForwarding   struct{} // observe others' timelock votes, never forward them
	CorruptInfo    struct{} // register the deal at escrows with wrong Dinfo
	// EscrowShortfall shorts every fungible leg by Amount independently,
	// withholding a leg no larger than that, and withholds one token of
	// every non-fungible leg. It adjusts a copy of the leg, never the
	// Spec's own obligation accounting.
	EscrowShortfall struct {
		Amount uint64 `json:"amount"`
	}
	AltruisticVote struct{} // send the own timelock vote to every escrow
	// VoteDelay holds the own commit votes for By.
	VoteDelay struct {
		By sim.Duration `json:"by"`
	}
	AbortImmediately struct{} // vote abort on the CBC instead of commit
	// CommitThenAbort rescinds a CBC commit vote After ticks later.
	CommitThenAbort struct {
		After sim.Duration `json:"after"`
	}
	// SoreLoser (Xue & Herlihy) backs out — no further transfers, no
	// commit vote, an abort vote on the CBC — once the market price of an
	// asset it pays out drifts up by the fraction Threshold since deal
	// start. It needs Config.Adaptive's Oracle to act.
	SoreLoser struct {
		Threshold float64 `json:"threshold"`
	}
	// FrontRun races the pending transactions of its deal it sees in its
	// chains' mempools: it forwards the vote or claims the outcome itself
	// at once, bidding for the order under a Bid. It keeps every protocol
	// duty, so it stays compliant, but the arena counts it as an
	// adversary: it moves who pays gas and when deals finalize.
	FrontRun struct {
		Bid *FeeBid `json:"bid,omitempty"`
	}
	// Grief escrows, then ceases all further participation but its
	// refund poke once it sees a counterparty's deposit.
	Grief struct{}
	// BundleGrief (in a bundled world, see bundles.go) raises its deal's
	// per-slot bundle bid one above each rival bid it sees, so a full
	// block defers the rival's whole bundle; Budget caps its total raises
	// (0: unlimited). It keeps every protocol duty.
	BundleGrief struct {
		Budget uint64 `json:"budget,omitempty"`
	}
)

// FeeBid makes a front-runner tip one above the transaction it races on
// a chain with a fee market, so the block builder orders its race first.
// Budget caps the total tip spend (0: unlimited); a race the budget
// cannot cover is declined, since an underbid loses by construction.
type FeeBid struct {
	Budget uint64 `json:"budget,omitempty"`
}

func (Crash) deviation()            {}
func (Offline) deviation()          {}
func (SkipEscrow) deviation()       {}
func (SkipTransfers) deviation()    {}
func (SkipVoting) deviation()       {}
func (SkipRefundPoke) deviation()   {}
func (NoForwarding) deviation()     {}
func (CorruptInfo) deviation()      {}
func (EscrowShortfall) deviation()  {}
func (AltruisticVote) deviation()   {}
func (VoteDelay) deviation()        {}
func (AbortImmediately) deviation() {}
func (CommitThenAbort) deviation()  {}
func (SoreLoser) deviation()        {}
func (FrontRun) deviation()         {}
func (Grief) deviation()            {}
func (BundleGrief) deviation()      {}

// kinds is the table of deviation kinds: for each, its JSON name, its
// range check and how its strategy is built. The table's order is the
// order in which a party arms its strategies' timers and subscriptions
// and runs their hooks.
var kinds = [...]kind{
	kindOf("crash", func(d Crash) error { return positive("at", d.At) }, func(d Crash) strategy {
		return strategy{deviant: true, start: func(p *Party) {
			p.cfg.Sched.After(d.At-p.cfg.Sched.Now(), func() { p.halted = true })
		}}
	}),
	kindOf("offline", func(d Offline) error {
		if d.Until <= d.From {
			return fmt.Errorf("until %d is not after from %d", d.Until, d.From)
		}
		return positive("from", d.From)
	}, func(d Offline) strategy {
		return strategy{deviant: true, start: func(p *Party) {
			p.sleepFrom, p.sleepUntil = d.From, d.Until
			p.cfg.Sched.After(d.Until-p.cfg.Sched.Now(), p.wake)
		}}
	}),
	kindOf("skip-escrow", nil, func(SkipEscrow) strategy { return drop(actEscrow) }),
	kindOf("skip-transfers", nil, func(SkipTransfers) strategy { return drop(actTransfer) }),
	kindOf("skip-voting", nil, func(SkipVoting) strategy { return drop(actVote) }),
	kindOf("skip-refund-poke", nil, func(SkipRefundPoke) strategy { return drop(actRefund) }),
	kindOf("no-forwarding", nil, func(NoForwarding) strategy { return drop(actForward) }),
	kindOf("corrupt-info", nil, func(CorruptInfo) strategy {
		// The party keeps the clean Dinfo (escrowInfo), so a re-drive
		// corrupts it once again, identically.
		return rewrite(actEscrow, true, func(a action) (action, bool) {
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
	}),
	kindOf("escrow-shortfall", func(d EscrowShortfall) error { return positive("amount", d.Amount) }, func(d EscrowShortfall) strategy {
		// The leg is the action's copy: the plan is never touched.
		return rewrite(actDeposit, true, func(a action) (action, bool) {
			if a.leg.Amount > 0 {
				if d.Amount >= a.leg.Amount {
					return a, false
				}
				a.leg.Amount -= d.Amount
			} else if n := len(a.leg.Tokens); n > 0 {
				a.leg.Tokens = a.leg.Tokens[:n-1]
				return a, n > 1
			}
			return a, true
		})
	}),
	kindOf("altruistic-vote", nil, func(AltruisticVote) strategy {
		return rewrite(actVote, false, func(a action) (action, bool) { a.wide = true; return a, true })
	}),
	kindOf("vote-delay", func(d VoteDelay) error { return positive("by", d.By) }, func(d VoteDelay) strategy {
		return rewrite(actVote, false, func(a action) (action, bool) { a.delay = d.By; return a, true })
	}),
	kindOf("abort-immediately", nil, func(AbortImmediately) strategy {
		return rewrite(actVote, true, func(a action) (action, bool) { a.abort = true; return a, true })
	}),
	kindOf("commit-then-abort", func(d CommitThenAbort) error { return positive("after", d.After) }, func(d CommitThenAbort) strategy {
		return rewrite(actVote, true, func(a action) (action, bool) { a.rescind = d.After; return a, true })
	}),
	kindOf("sore-loser", func(d SoreLoser) error {
		if !(d.Threshold > 0) || math.IsInf(d.Threshold, 1) {
			return fmt.Errorf("threshold %v is not a finite fraction > 0", d.Threshold)
		}
		return nil
	}, func(d SoreLoser) strategy {
		return strategy{deviant: true,
			start: func(p *Party) { p.pollPrices() },
			observe: func(p *Party, o observation) {
				if o.kind != obsPrice || o.drift < d.Threshold {
					return
				}
				p.quit = true
				if cb := p.cfg.Adaptive.OnSoreLoser; cb != nil {
					cb(p.Addr, o.token, o.drift)
				}
				p.rescind()
			},
		}
	}),
	kindOf("front-run", nil, frontRunner),
	kindOf("grief", nil, func(Grief) strategy {
		return strategy{deviant: true, observe: func(p *Party, o observation) {
			if d, ok := o.event.(escrow.EscrowedEvent); ok && d.Party != p.Addr {
				p.quit = true
			}
		}}
	}),
	kindOf("bundle-grief", nil, bundleGriefer),
}

// kind is a row of the kinds table.
type kind struct {
	name  string                   // the JSON name
	typ   reflect.Type             // the kind's struct
	check func(Deviation) error    // the range check; nil: none
	build func(Deviation) strategy // the strategy
}

// kindOf is the row of kind D.
func kindOf[D Deviation](name string, check func(D) error, build func(D) strategy) kind {
	k := kind{name: name, typ: reflect.TypeFor[D](), build: func(d Deviation) strategy { return build(d.(D)) }}
	if check != nil {
		k.check = func(d Deviation) error { return check(d.(D)) }
	}
	return k
}

// kindIndex is d's row of the kinds table, or -1 for a nil d.
func kindIndex(d Deviation) int {
	t := reflect.TypeOf(d)
	return slices.IndexFunc(kinds[:], func(k kind) bool { return k.typ == t })
}

// positive is the range check of a parameter that must be above 0.
func positive[T ~int64 | ~uint64](param string, v T) error {
	if v <= 0 {
		return fmt.Errorf("%s %d is not positive", param, v)
	}
	return nil
}

// Compliant reports whether none of the behavior's strategies breaks a
// protocol duty. Altruistic and late voting, front-running and bundle
// griefing keep every duty and stay compliant.
func (b Behavior) Compliant() bool {
	var p Party
	p.adopt(b)
	return p.Compliant()
}

// Validate rejects a behavior a party could not act on as written: a
// kind named twice, or a parameter outside its range. The error names
// the kind.
func (b Behavior) Validate() error {
	var named [len(kinds)]bool
	for _, d := range b {
		i := kindIndex(d)
		switch {
		case i < 0:
			return fmt.Errorf("%v is not a deviation", d)
		case named[i]:
			return fmt.Errorf("%s: named twice", kinds[i].name)
		}
		named[i] = true
		if check := kinds[i].check; check != nil {
			if err := check(d); err != nil {
				return fmt.Errorf("%s: %w", kinds[i].name, err)
			}
		}
	}
	return nil
}

// MarshalJSON encodes the list form, in list order.
func (b Behavior) MarshalJSON() ([]byte, error) {
	items := make([]json.RawMessage, len(b))
	for j, d := range b {
		i := kindIndex(d)
		if i < 0 {
			return nil, fmt.Errorf("%v is not a deviation", d)
		}
		params, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		items[j] = fmt.Appendf(nil, `{%q:%s}`, kinds[i].name, params)
	}
	return json.Marshal(items)
}

// UnmarshalJSON decodes the list form as strictly as a scenario file:
// an unknown kind, an unknown or missing parameter, a kind named twice
// and a parameter outside its range are errors. An empty list decodes
// to nil.
func (b *Behavior) UnmarshalJSON(data []byte) error {
	var items []map[string]json.RawMessage
	if err := json.Unmarshal(data, &items); err != nil {
		return fmt.Errorf(`a behavior is a list of {"kind": {parameters}} objects: %w`, err)
	}
	var out Behavior
	for _, item := range items {
		if len(item) != 1 {
			return fmt.Errorf(`a deviation is one {"kind": {parameters}} object, not %d keys`, len(item))
		}
		for name, params := range item {
			i := slices.IndexFunc(kinds[:], func(k kind) bool { return k.name == name })
			if i < 0 {
				return fmt.Errorf("unknown deviation kind %q", name)
			}
			d := reflect.New(kinds[i].typ)
			if err := decodeParams(params, d.Interface()); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			out = append(out, d.Elem().Interface().(Deviation))
		}
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*b = out
	return nil
}

// decodeParams decodes a kind's JSON parameters into v, a pointer to the
// kind's struct: an object whose keys are the struct's json tags, each
// given unless tagged omitempty.
func decodeParams(data []byte, v any) error {
	var given map[string]json.RawMessage
	if json.Unmarshal(data, &given) != nil || given == nil {
		return fmt.Errorf("parameters are not an object")
	}
	t := reflect.TypeOf(v).Elem()
	for i := range t.NumField() {
		key, opts, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if _, ok := given[key]; !ok && opts != "omitempty" {
			return fmt.Errorf("missing parameter %q", key)
		}
		delete(given, key)
	}
	if len(given) > 0 {
		return fmt.Errorf("unknown parameter %q", slices.Min(slices.Collect(maps.Keys(given))))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
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

// adopt builds the party's strategies from its behavior, one for each
// kind it names, in table order. A compliant behavior builds none.
func (p *Party) adopt(b Behavior) {
	p.strategies, p.shirks = nil, false
	if len(b) == 0 {
		return
	}
	p.strategies = make([]strategy, 0, len(b))
	for i := range kinds {
		if j := slices.IndexFunc(b, func(d Deviation) bool { return reflect.TypeOf(d) == kinds[i].typ }); j >= 0 {
			st := kinds[i].build(b[j])
			p.strategies = append(p.strategies, st)
			p.shirks = p.shirks || st.shirks
		}
	}
}

// drop is the strategy that never takes an action of the given kind.
// Dropping escrows or transfers shirks an outgoing duty.
func drop(kind actionKind) strategy {
	shirks := kind == actEscrow || kind == actTransfer
	return strategy{deviant: true, shirks: shirks, act: func(_ *Party, a action) (action, bool) {
		return a, a.kind != kind
	}}
}

// rewrite is the strategy that passes actions of the given kind through
// f, and every other action unchanged.
func rewrite(kind actionKind, deviant bool, f func(action) (action, bool)) strategy {
	return strategy{deviant: deviant, act: func(_ *Party, a action) (action, bool) {
		if a.kind != kind {
			return a, true
		}
		return f(a)
	}}
}

// frontRunner races the gossip it observes (see race). While racing it
// marks the forwards and claims that race, so their receipts report
// through Config.Adaptive (success: its copy beat the raced transaction;
// plain races bid 0), and a fee bidder rewrites their tip — or drops a
// race its budget cannot cover.
func frontRunner(d FrontRun) strategy {
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
			if fees := d.Bid; fees != nil && a.on.FeeMarket() != nil {
				if bid = victim.Tip + 1; fees.Budget > 0 && spent+bid > fees.Budget {
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
// rival bid it observes, within its budget; it declines a raise the
// budget cannot cover, since an underbid loses by construction.
func bundleGriefer(d BundleGrief) strategy {
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
			if d.Budget > 0 && spent+cost > d.Budget {
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
