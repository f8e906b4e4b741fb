// Package chain implements a deterministic blockchain simulator: a
// publicly-readable, tamper-evident ledger that tracks asset ownership and
// executes contracts (§3 of the paper).
//
// The simulator provides exactly the interface the paper assumes of a
// blockchain and nothing more:
//
//   - parties publish entries (transactions) that execute contract code;
//   - contract code is deterministic, passive, and metered for gas;
//   - parties monitor chains and observe state changes with bounded delay
//     (the Δ of the synchronous model) or unbounded delay before the
//     global stabilization time (the eventually-synchronous model);
//   - contracts cannot observe other chains: cross-chain information flows
//     only through parties that carry proofs.
//
// Blocks are produced lazily at fixed boundaries (height × block interval)
// whenever transactions are pending, which keeps the discrete-event queue
// finite while preserving blockchain-style timestamp granularity.
package chain

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"xdeal/internal/bft"
	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
)

// ID identifies a chain.
type ID string

// Addr is the address of a party or contract. Parties and contracts share
// one namespace, as on Ethereum.
type Addr string

// Tx is a transaction: a call to a contract method published by a party.
type Tx struct {
	Sender   Addr
	Contract Addr
	Method   string
	Args     any
	// Label tags the transaction for gas accounting (the harness uses
	// deal-phase labels to reproduce Figure 4's per-phase rows).
	Label string
	// OnReceipt, when non-nil, is invoked after the transaction executes,
	// delayed by the chain's notification latency — the sender observing
	// its own transaction's fate is an observation like any other.
	OnReceipt func(*Receipt)
	// Tip is the priority fee offered to the block builder. On chains
	// with a fee market, blocks include pending transactions in
	// descending tip order (ties broken by arrival sequence, preserving
	// FIFO among equal bids); without one, tips are ignored and
	// inclusion is strictly FIFO.
	Tip uint64

	seq         uint64   // arrival order for deterministic inclusion
	submittedAt sim.Time // publish time, set by Submit before any delay
	arrivedAt   sim.Time // mempool arrival, set by Submit's delivery
	deferrals   int      // blocks that deferred this arrived transaction
	pricedOut   bool     // a deferral was a fee-market displacement
	outbidBy    Addr     // sender of the marginal bid that displaced it
}

// Receipt reports the outcome of an executed transaction.
type Receipt struct {
	Tx     *Tx
	Height uint64
	Time   sim.Time // execution (block) time
	Result any
	Err    error
	// ArrivedAt is when the transaction reached the mempool. Together
	// with Time (the block that actually included it) it makes queuing
	// delay observable: a transaction deferred past full blocks carries
	// its real inclusion time here, not the time it was published, so
	// latency metrics see what congestion cost it.
	ArrivedAt sim.Time
	// BaseFee and TipPaid record the fee-market charge at inclusion
	// (zero on chains without a fee market).
	BaseFee uint64
	TipPaid uint64
	// SubmittedAt is when the sender published the transaction; the gap
	// to ArrivedAt is the submit/gossip leg of the network, the gap from
	// ArrivedAt to Time the queueing leg. Causal tracing splits decision
	// latency along exactly these seams.
	SubmittedAt sim.Time
	// Deferrals counts the blocks that bumped this transaction after it
	// had arrived (capacity overflow, lost fee auctions, lost bundle
	// auctions). PricedOut marks that at least one deferral was a
	// fee-market displacement rather than plain capacity, and OutbidBy
	// names the sender of the marginal bid that displaced it — the
	// evidence causal tracing needs to blame an adversary for the wait.
	Deferrals int
	PricedOut bool
	OutbidBy  Addr
}

// Queued is how long the transaction waited in the mempool before the
// block builder included it.
func (r *Receipt) Queued() sim.Duration { return r.Time - r.ArrivedAt }

// Event is a log entry emitted by a contract, delivered to subscribers
// after the chain's notification delay.
type Event struct {
	Chain    ID
	Height   uint64
	Time     sim.Time // block time at emission
	Contract Addr
	Kind     string
	Data     any
	Sender   Addr // transaction origin
	// Topic is what the event is about, as its payload names it through a
	// Topic() string method (escrow and vote events name their deal); ""
	// when the payload names none. Topic subscribers see only their
	// topic's events (see SubscribeTopic).
	Topic string
}

// topicOf is the topic a payload names through a Topic() string method,
// or "" if it has none.
func topicOf(v any) string {
	if t, ok := v.(interface{ Topic() string }); ok {
		return t.Topic()
	}
	return ""
}

// Contract is a blockchain-resident program. Implementations must be
// deterministic and interact with the world only through the Env.
type Contract interface {
	Invoke(env *Env, method string, args any) (any, error)
}

// DelayPolicy models network latency between parties and the chain: the
// latency from publishing a transaction to its arrival in the mempool,
// and from a block being produced to an observer seeing it. Both are
// drawn uniformly from the chain's delay stream.
type DelayPolicy interface {
	// Bounds is the range [min, max] a delay starting at now is drawn
	// from. When min == max the delay is fixed and draws nothing.
	Bounds(now sim.Time) (min, max sim.Duration)
}

// SyncPolicy is the synchronous model: delays are uniform in [Min, Max],
// and Max must be chosen so that submit + block interval + notify ≤ Δ.
type SyncPolicy struct {
	Min, Max sim.Duration
}

// Bounds implements DelayPolicy.
func (p SyncPolicy) Bounds(sim.Time) (min, max sim.Duration) { return p.Min, p.Max }

// GSTPolicy is the eventually-synchronous model of §6: before the global
// stabilization time delays are drawn from [Min, PreMax] (unbounded in
// principle, adversarially large in practice); after GST they are bounded
// by PostMax.
type GSTPolicy struct {
	GST     sim.Time
	Min     sim.Duration
	PreMax  sim.Duration
	PostMax sim.Duration
}

// Bounds implements DelayPolicy.
func (p GSTPolicy) Bounds(now sim.Time) (min, max sim.Duration) {
	if now < p.GST {
		return p.Min, p.PreMax
	}
	return p.Min, p.PostMax
}

// Config parameterizes a chain.
type Config struct {
	ID            ID
	BlockInterval sim.Duration
	Delays        DelayPolicy
	Schedule      gas.Schedule
	// Keys is the public keyring: every party's public key is known to
	// all (§3), including to contracts, which need them to verify votes.
	Keys map[string]ed25519.PublicKey
	// VerifyMemo remembers the signatures contracts on this chain have
	// already accepted, so a certificate or path prefix shown to many
	// escrows is checked once per world (see sig.Memo). Gas is
	// still charged per verification. The engine shares one memo among
	// all chains of a substrate; nil verifies every signature in full.
	VerifyMemo *sig.Memo
	// OutageFrom/OutageUntil model a denial-of-service window during
	// which the chain produces no blocks (§5.3, §9): transactions queue
	// in the mempool and execute once the outage lifts. Zero means no
	// outage.
	OutageFrom  sim.Time
	OutageUntil sim.Time
	// MaxBlockTxs caps how many transactions one block includes; excess
	// transactions stay queued for later blocks in arrival order. Zero
	// means unlimited. Capacity is what makes chains shared by many
	// deals genuinely contend: under load, a transaction's confirmation
	// latency grows with the length of the queue in front of it.
	MaxBlockTxs int
	// FeeMarket, when non-nil, attaches an EIP-1559-style fee market:
	// the block builder orders the mempool by priority tip (descending,
	// arrival-sequence tie-break) instead of FIFO, every included
	// transaction burns the block's base fee plus its tip, and the base
	// fee rises and falls with block fullness. Nil keeps the legacy
	// FIFO chain, bit for bit.
	FeeMarket *feemarket.Config
	// Bundles enables the per-block combinatorial bundle auction (see
	// bundles.go and internal/bundle): deals route transactions into
	// all-or-nothing bundles with one aggregate bid, and the builder
	// runs winner determination over bundles plus the loose mempool.
	// Requires a FeeMarket (bids need a fee ledger); without one the
	// flag is inert and SubmitBundled falls back to plain Submit.
	Bundles bool
}

// Chain is a simulated blockchain.
type Chain struct {
	cfg       Config
	sched     *sim.Scheduler
	rng       *sim.RNG
	meter     *gas.Meter
	fees      *feemarket.Market // nil without a fee market
	height    uint64
	mempool   []*Tx
	txSeq     uint64
	contracts map[Addr]Contract
	subs      subscribers[Event]     // contract-event observers
	mpSubs    subscribers[PendingTx] // mempool-gossip observers
	readEnv   *Env                   // the one Env every Query reads through
	rcptSubs  []func(*Receipt)       // by subscription id; nil once unsubscribed
	blockSet  bool                   // a block production event is scheduled
	receipts  []*Receipt
	mpHigh    int // mempool depth high-water, sampled at each arrival

	// fanOut's wanted deliveries — subscription ids and their delays —
	// reused across fan-outs.
	fanIDs    []int32
	fanDelays []sim.Duration

	// Block-production scratch, reused across blocks so the hot path
	// stays allocation-free: the drained mempool's backing array (blocks
	// ping-pong between the live slice and this spare), the inclusion
	// list selection hands to seal, and the block's events.
	mpFree   []*Tx
	blockBuf []inclusion
	// The events of the block being sealed, in emission order; contracts
	// emit into it directly, and a failed call or transaction truncates
	// its own events away.
	blockEvents []Event

	// Bundle-auction state (see bundles.go): the auction queue in
	// arrival order, each deal's open bundle, per-deal loss streaks,
	// and the bundle-bid / auction / block observers.
	bundles      []*pendingBundle
	openBundles  map[string]*pendingBundle
	bundleStreak map[string]int
	bbSubs       subscribers[BundleGossip]
	aucSubs      []func(*AuctionRecord)
	blkSubs      []func(*BlockSummary)

	// submitMu serializes Submit so transaction ingestion is safe from
	// multiple goroutines while the scheduler is idle (fleets feed
	// chains concurrently before draining). Everything else — block
	// production, contract execution, observation — runs on the
	// single-threaded scheduler and takes no locks.
	submitMu sync.Mutex
}

// PendingTx is the publicly gossiped view of a transaction that has been
// published but not yet executed. Mempool observers (front-running
// parties, fee estimators) see the sender, target, full call data, and
// the offered tip — exactly what a real public mempool leaks, and
// exactly what a fee-bidding front-runner needs to outbid.
type PendingTx struct {
	Chain    ID
	Sender   Addr
	Contract Addr
	Method   string
	Label    string
	Args     any
	Tip      uint64
	Topic    string // what Args names through a Topic() method, as for Event
}

// New creates a chain attached to the scheduler. The RNG is forked from
// the provided source so each chain has an independent stream.
func New(cfg Config, sched *sim.Scheduler, rng *sim.RNG) *Chain {
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 10
	}
	if cfg.Delays == nil {
		cfg.Delays = SyncPolicy{Min: 1, Max: 5}
	}
	if cfg.Keys == nil {
		cfg.Keys = make(map[string]ed25519.PublicKey)
	}
	c := &Chain{
		cfg:          cfg,
		sched:        sched,
		rng:          rng.Fork(),
		meter:        gas.NewMeter(cfg.Schedule),
		contracts:    make(map[Addr]Contract),
		openBundles:  make(map[string]*pendingBundle),
		bundleStreak: make(map[string]int),
	}
	if cfg.FeeMarket != nil {
		c.fees = feemarket.New(*cfg.FeeMarket, cfg.MaxBlockTxs)
	}
	// Public reads are free ("blockchains are publicly readable", §3;
	// party-side validation "incurs no gas cost", §7.1): whatever a read
	// charges goes to a meter nothing ever reports.
	c.readEnv = &Env{chain: c, meter: gas.NewMeter(cfg.Schedule), label: "read"}
	return c
}

// ID returns the chain identifier.
func (c *Chain) ID() ID { return c.cfg.ID }

// Height returns the number of blocks produced.
func (c *Chain) Height() uint64 { return c.height }

// Meter exposes the chain's gas meter.
func (c *Chain) Meter() *gas.Meter { return c.meter }

// FeeMarket exposes the chain's fee market, or nil on FIFO chains.
func (c *Chain) FeeMarket() *feemarket.Market { return c.fees }

// Scheduler returns the simulation scheduler the chain runs on.
func (c *Chain) Scheduler() *sim.Scheduler { return c.sched }

// Keys returns the public keyring known to contracts on this chain.
func (c *Chain) Keys() map[string]ed25519.PublicKey { return c.cfg.Keys }

// Receipts returns all transaction receipts in execution order.
func (c *Chain) Receipts() []*Receipt { return c.receipts }

// Deploy installs a contract at addr. Deploying over an existing address
// is an error (contract code is immutable once published).
func (c *Chain) Deploy(addr Addr, ct Contract) error {
	if _, exists := c.contracts[addr]; exists {
		return fmt.Errorf("chain %s: address %s already deployed", c.cfg.ID, addr)
	}
	c.contracts[addr] = ct
	return nil
}

// MustDeploy is Deploy that panics on error, for test and example setup.
func (c *Chain) MustDeploy(addr Addr, ct Contract) {
	if err := c.Deploy(addr, ct); err != nil {
		panic(err)
	}
}

// Contract returns the contract at addr, or nil.
func (c *Chain) Contract(addr Addr) Contract { return c.contracts[addr] }

// subscription is one observer of events or of mempool gossip: fn
// receives, after the observer's own notify delay, every item its
// interest predicate accepts.
type subscription[T any] struct {
	wants func(T) bool // nil accepts every item
	fn    func(T)
}

// subscribers is one delivery channel's observers. A subscription's id is
// its place in subscription order, kept for life; its slot is zeroed when
// it unsubscribes, and ids are never reused. Each id is also listed once,
// under its topic or among the untopiced, so a fan-out visits only the
// subscriptions that may see its item.
type subscribers[T any] struct {
	all    []subscription[T]  // by id; fn nil once unsubscribed
	open   []int32            // ids of the untopiced subscriptions, ascending
	topics map[string][]int32 // ids of each topic's subscriptions, ascending
	gone   []int32            // ids no longer live, ascending
}

// add registers s under topic ("" for none) and returns the function that
// unsubscribes it.
func (l *subscribers[T]) add(topic string, s subscription[T]) func() {
	id := int32(len(l.all))
	l.all = append(l.all, s)
	if topic == "" {
		l.open = append(l.open, id)
	} else {
		if l.topics == nil {
			l.topics = make(map[string][]int32)
		}
		l.topics[topic] = append(l.topics[topic], id)
	}
	return func() {
		if l.all[id].fn == nil {
			return
		}
		l.all[id] = subscription[T]{}
		at, _ := slices.BinarySearch(l.gone, id)
		l.gone = slices.Insert(l.gone, at, id)
	}
}

// live is the number of live subscriptions.
func (l *subscribers[T]) live() int { return len(l.all) - len(l.gone) }

// rank is a live subscription's position among the live ones, in
// subscription order: the number of live subscriptions before it.
func (l *subscribers[T]) rank(id int32) int {
	before, _ := slices.BinarySearch(l.gone, id)
	return int(id) - before
}

// register appends an observer to list and returns the function that
// unsubscribes it by zeroing its slot. Slots are never reused, so
// observers keep their subscription order, and a zero slot is skipped.
func register[S any](list *[]S, s S) func() {
	id := len(*list)
	*list = append(*list, s)
	return func() {
		var zero S
		(*list)[id] = zero
	}
}

// notify calls every live synchronous observer in subscription order. It
// re-reads the list at each step, so an observer added or removed by an
// earlier one's call is seen at once.
func notify[T any](list *[]func(T), v T) {
	for i := 0; i < len(*list); i++ {
		if fn := (*list)[i]; fn != nil {
			fn(v)
		}
	}
}

// fanOut delivers item to every live subscriber in l that may see it —
// the untopiced ones and those of item's topic — and wants it, each after
// its own notify delay. Every live subscriber, seeing the item or not,
// owns one draw of the chain's delay stream per fan-out, addressed by its
// rank among the live subscribers: the subscriber at rank r is delayed by
// the r-th upcoming draw, read in place (sim.RNG.DurationAt), and the
// stream then skips past all of them. So the delays, and the stream's
// state afterwards, are exactly those of drawing once per live subscriber
// in subscription order, while the work is proportional to the
// subscribers visited. The wanted deliveries are then scheduled as one
// event per distinct delay, which calls its subscribers in subscription
// order with one shared copy of the item; a delay with a single delivery
// gets a plain one-call event. Grouping costs the wanted deliveries times
// the distinct delays among them.
//
// Grouping is exact. One fan-out schedules its deliveries back to back,
// so one event per delivery would hold consecutive sequence numbers: no
// other event could run between two deliveries of the same tick, and
// anything a handler schedules runs after all of them in both schemes.
// Only Scheduler.Steps sees the difference. This holds because wants and
// Bounds never schedule anything; they must not start to. A delivery,
// once scheduled, is not withdrawn by a later unsubscription.
func fanOut[T any](c *Chain, l *subscribers[T], topic string, item T) {
	live := l.live()
	if live == 0 {
		return
	}
	lo, hi := c.cfg.Delays.Bounds(c.sched.Now())
	var topical []int32
	if topic != "" {
		topical = l.topics[topic]
	}
	// Visit the untopiced and the topic's subscribers merged into
	// subscription order, keeping the wanted ones with their delays.
	ids, delays := c.fanIDs[:0], c.fanDelays[:0]
	open := l.open
	for len(open) > 0 || len(topical) > 0 {
		var id int32
		if len(topical) == 0 || len(open) > 0 && open[0] < topical[0] {
			id, open = open[0], open[1:]
		} else {
			id, topical = topical[0], topical[1:]
		}
		s := l.all[id]
		if s.fn == nil || s.wants != nil && !s.wants(item) {
			continue
		}
		ids = append(ids, id)
		// After treats a negative delay as zero; so does the grouping.
		delays = append(delays, max(c.rng.DurationAt(l.rank(id), lo, hi), 0))
	}
	if lo != hi {
		c.rng.Skip(live)
	}
	c.fanIDs, c.fanDelays = ids, delays
	if len(ids) == 0 {
		return
	}
	shared := new(T) // one heap copy for every delivery
	*shared = item
	for i, d := range delays {
		if d < 0 {
			continue // already scheduled with an earlier delivery
		}
		n := 1
		for _, e := range delays[i+1:] {
			if e == d {
				n++
			}
		}
		if n == 1 {
			fn := l.all[ids[i]].fn
			c.sched.After(d, func() { fn(*shared) })
			continue
		}
		fns := make([]func(T), 0, n)
		for j := i; j < len(delays); j++ {
			if delays[j] == d {
				fns = append(fns, l.all[ids[j]].fn)
				delays[j] = -1
			}
		}
		c.sched.After(d, func() {
			for _, fn := range fns {
				fn(*shared)
			}
		})
	}
}

// The fan-outs of the three delivery paths: events, mempool gossip and
// bundle bids. Tests swap in a one-event-per-delivery reference.
var (
	fanEvents = fanOut[Event]
	fanGossip = fanOut[PendingTx]
	fanBids   = fanOut[BundleGossip]
)

// delay draws one submit or notify delay from the chain's delay stream.
func (c *Chain) delay() sim.Duration {
	return c.rng.Duration(c.cfg.Delays.Bounds(c.sched.Now()))
}

// Subscribe registers an observer for all of this chain's events. The
// returned function unsubscribes. Events arrive after the chain's notify
// delay.
func (c *Chain) Subscribe(fn func(Event)) func() {
	return c.SubscribeFiltered(nil, fn)
}

// SubscribeFiltered registers an observer for the events wants accepts —
// a party monitors a chain for the changes that concern it (§3), not for
// every log entry. wants runs synchronously as each event is published,
// not when it is delivered, so it may depend only on the event and on
// state fixed before subscribing, and it must not schedule anything. The
// observer owns one position in the chain's delay stream for every event
// published while it is live, whether or not it wants that event (the
// stream is shared, so every position keeps its place); a rejected event
// leaves its draw unread and schedules nothing.
func (c *Chain) SubscribeFiltered(wants func(Event) bool, fn func(Event)) func() {
	return c.subs.add("", subscription[Event]{wants: wants, fn: fn})
}

// SubscribeTopic is SubscribeFiltered for the events of one topic (see
// Event.Topic): the chain offers the observer only events whose Topic is
// topic, and, among those, delivers the ones wants accepts (nil accepts
// all). It costs nothing per event of other topics, yet, like every
// observer, it owns one position in the delay stream per event. An empty
// topic is no topic: the observer is offered every event.
func (c *Chain) SubscribeTopic(topic string, wants func(Event) bool, fn func(Event)) func() {
	return c.subs.add(topic, subscription[Event]{wants: wants, fn: fn})
}

// Submit publishes a transaction. It reaches the mempool after the submit
// delay and executes in the next block at or after its arrival — the
// block chosen FIFO, or by tip under a fee market. Mempool observers see
// the transaction's gossip (including its tip) as soon as it is
// published, each after its own notification delay — so a fast observer
// can react to, or outbid, a pending transaction before it has even
// reached the mempool.
//
// Submit is safe to call from multiple goroutines while the scheduler is
// idle; the sequence numbers that order ties then follow lock-acquisition
// order. Deterministic simulations submit from the scheduler thread only.
func (c *Chain) Submit(tx *Tx) {
	c.submitMu.Lock()
	tx.seq = c.txSeq
	c.txSeq++
	tx.submittedAt = c.sched.Now()
	c.sched.After(c.delay(), func() {
		tx.arrivedAt = c.sched.Now()
		c.mempool = append(c.mempool, tx)
		if len(c.mempool) > c.mpHigh {
			c.mpHigh = len(c.mempool)
		}
		c.scheduleBlock()
	})
	c.gossipTx(tx)
	c.submitMu.Unlock()
}

// gossipTx fans a published transaction out to the mempool observers it
// concerns, each after its own notification delay (see fanOut).
func (c *Chain) gossipTx(tx *Tx) {
	if c.mpSubs.live() == 0 {
		return
	}
	topic := topicOf(tx.Args)
	fanGossip(c, &c.mpSubs, topic, PendingTx{
		Chain:    c.cfg.ID,
		Sender:   tx.Sender,
		Contract: tx.Contract,
		Method:   tx.Method,
		Label:    tx.Label,
		Args:     tx.Args,
		Tip:      tx.Tip,
		Topic:    topic,
	})
}

// SubscribeMempool registers a mempool observer: fn receives every
// subsequently published transaction of topic ("" for every transaction)
// that wants accepts (nil accepts all), after the observer's notification
// delay. wants runs as the transaction is published, so, as for
// SubscribeFiltered, it may depend only on the transaction and on state
// fixed before subscribing, and it must not schedule anything; like an
// event observer, the mempool observer owns one position in the delay
// stream per published transaction, seen or not. The returned function
// unsubscribes. Observation is free (public gossip); reacting costs a
// transaction like anything else.
func (c *Chain) SubscribeMempool(topic string, wants func(PendingTx) bool, fn func(PendingTx)) func() {
	return c.mpSubs.add(topic, subscription[PendingTx]{wants: wants, fn: fn})
}

// SubscribeReceipts registers an omniscient receipt observer: fn is
// invoked synchronously as each transaction executes, with no network
// delay. This is measurement apparatus (tracing, metrics), not a channel
// parties may react through — parties observe via Subscribe/OnReceipt,
// which model latency. The returned function unsubscribes.
func (c *Chain) SubscribeReceipts(fn func(*Receipt)) func() {
	return register(&c.rcptSubs, fn)
}

// SubmitAfter publishes a transaction after an additional sender-side
// delay (used by parties that deliberately wait, e.g. voting at the last
// allowed moment).
func (c *Chain) SubmitAfter(d sim.Duration, tx *Tx) {
	c.sched.After(d, func() { c.Submit(tx) })
}

// scheduleBlock arranges block production at the next block boundary if
// not already scheduled, deferring past any outage window.
func (c *Chain) scheduleBlock() {
	if c.blockSet {
		return
	}
	pending := len(c.mempool) > 0
	if !pending && c.Bundled() {
		for _, b := range c.bundles {
			if len(b.txs) > 0 {
				pending = true
				break
			}
		}
	}
	if !pending {
		return
	}
	c.blockSet = true
	now := c.sched.Now()
	next := (now/c.cfg.BlockInterval + 1) * c.cfg.BlockInterval
	if c.cfg.OutageUntil > 0 && next >= c.cfg.OutageFrom && next < c.cfg.OutageUntil {
		next = (c.cfg.OutageUntil/c.cfg.BlockInterval + 1) * c.cfg.BlockInterval
	}
	c.sched.After(next-now, c.produceBlock)
}

// inclusion is one slot of a block under construction: a transaction and
// the priority fee it pays (its own tip, or its share of a bundle's bid).
type inclusion struct {
	tx  *Tx
	tip uint64
}

// produceBlock builds one block in two steps: select, then seal.
// Selection decides which pending transactions the block includes, in
// what order and at what fee, and marks the deferral on everything it
// leaves behind; it is the only step that differs between the mempool
// builder (FIFO, or tip-ordered under a fee market) and the bundle
// auction. Sealing — execution, fees, receipts, observers, events — is
// one routine for all of them.
func (c *Chain) produceBlock() {
	c.blockSet = false
	var block []inclusion
	var auc *auction
	if c.Bundled() {
		block, auc = c.selectAuction()
	} else {
		block = c.selectMempool()
	}
	if len(block) == 0 {
		return // nothing arrived, or nothing fits; the next arrival retries
	}
	c.seal(block, auc)
}

// selectMempool picks a block from the mempool. Without a fee market the
// order is arrival order: all pending transactions, or the first
// MaxBlockTxs when capacity-limited. With one, the whole mempool is
// ordered by priority tip (descending, arrival-sequence tie-break — so
// equal bids keep the FIFO baseline) before the capacity cap applies.
// Overflow transactions stay queued for the next block.
func (c *Chain) selectMempool() []inclusion {
	// Drain the mempool into the spare buffer: blocks ping-pong between
	// the two backing arrays, so steady-state production allocates no
	// new mempool storage.
	txs := c.mempool
	c.mempool = c.mpFree[:0]
	if c.fees != nil {
		sort.Slice(txs, func(i, j int) bool {
			if txs[i].Tip != txs[j].Tip {
				return txs[i].Tip > txs[j].Tip
			}
			return txs[i].seq < txs[j].seq
		})
	}
	if cap := c.cfg.MaxBlockTxs; cap > 0 && len(txs) > cap {
		c.mempool = append(c.mempool, txs[cap:]...)
		txs = txs[:cap]
		// Mark the deferral on every bumped transaction. Under a fee
		// market the marginal included bid is the cheapest one (the
		// slice is tip-sorted); anything it strictly out-tipped was
		// priced out, not merely capacity-queued.
		marginal := txs[len(txs)-1]
		for _, d := range c.mempool {
			d.deferrals++
			if c.fees != nil && d.Tip < marginal.Tip {
				d.pricedOut = true
				d.outbidBy = marginal.Sender
			}
		}
	}
	block := c.blockBuf[:0]
	for _, tx := range txs {
		block = append(block, inclusion{tx: tx, tip: tx.Tip})
	}
	c.blockBuf = block[:0]
	c.mpFree = txs[:0]
	return block
}

// seal executes the selected transactions as the next block and settles
// everything that follows from it, in one fixed sequence that every RNG
// draw, scheduler insertion and synchronous observer call depends on:
// per transaction, in inclusion order — execute, charge the fee (the
// transaction pays its tip whether or not it succeeds: it occupied block
// space either way), log the receipt, call the receipt observers, draw
// the sender's notification delay — then move the base fee, close the
// auction if there was one, summarise the block, notify the auction's
// bidders, publish the events of the transactions that succeeded, and
// schedule the next block.
func (c *Chain) seal(block []inclusion, auc *auction) {
	c.height++
	now := c.sched.Now()
	var baseFee uint64
	if c.fees != nil {
		baseFee = c.fees.BaseFee()
	}
	// Receipts for the whole block come from one slab allocation.
	slab := make([]Receipt, len(block))
	for i, in := range block {
		tx, r := in.tx, &slab[i]
		c.execute(r, tx, now)
		r.ArrivedAt = tx.arrivedAt
		r.SubmittedAt = tx.submittedAt
		r.Deferrals = tx.deferrals
		r.PricedOut = tx.pricedOut
		r.OutbidBy = tx.outbidBy
		if c.fees != nil {
			c.fees.Charge(tx.Label, in.tip)
			r.BaseFee = baseFee
			r.TipPaid = in.tip
		}
		c.receipts = append(c.receipts, r)
		notify(&c.rcptSubs, r)
		if tx.OnReceipt != nil {
			c.sched.After(c.delay(), func() { tx.OnReceipt(r) })
		}
	}
	if c.fees != nil {
		c.fees.Seal(len(block))
	}
	if auc != nil {
		c.closeAuction(auc, now)
	}
	if slices.ContainsFunc(c.blkSubs, func(fn func(*BlockSummary)) bool { return fn != nil }) {
		c.emitBlockSummary(block, now)
	}
	if auc != nil {
		c.notifyBidders(auc)
	}
	for _, ev := range c.blockEvents {
		c.dispatch(ev)
	}
	clear(c.blockEvents) // drop the payloads; the storage is reused
	c.blockEvents = c.blockEvents[:0]
	c.scheduleBlock() // txs may have arrived while producing
}

// execute runs one transaction against its target contract, writing the
// outcome into r and appending the events it emitted to the block's —
// none if it failed: a failed transaction's events are never published.
func (c *Chain) execute(r *Receipt, tx *Tx, now sim.Time) {
	r.Tx = tx
	r.Height = c.height
	r.Time = now
	ct, ok := c.contracts[tx.Contract]
	if !ok {
		r.Err = fmt.Errorf("chain %s: no contract at %s", c.cfg.ID, tx.Contract)
		return
	}
	c.meter.Charge(tx.Label, gas.OpTxBase, 1)
	env := &Env{
		chain:  c,
		meter:  c.meter,
		label:  tx.Label,
		origin: tx.Sender,
		sender: tx.Sender,
		self:   tx.Contract,
		now:    now,
		height: c.height,
		events: &c.blockEvents,
	}
	mark := len(c.blockEvents)
	r.Result, r.Err = ct.Invoke(env, tx.Method, tx.Args)
	if r.Err != nil {
		c.blockEvents = c.blockEvents[:mark]
	}
}

// dispatch fans an event out to the subscribers it concerns, in
// subscription order with independent delays (see fanOut). Only wanted
// deliveries reach the scheduler, which orders by (time, insertion), so
// leaving the others out keeps the relative order of all that remain.
func (c *Chain) dispatch(ev Event) { fanEvents(c, &c.subs, ev.Topic, ev) }

// Env is the execution environment visible to contract code. All side
// effects — storage charges, signature verification, events, cross-contract
// calls — go through it so gas accounting matches §7.1.
type Env struct {
	chain  *Chain
	meter  *gas.Meter
	label  string
	origin Addr // transaction sender
	sender Addr // immediate caller (party, or calling contract)
	self   Addr // executing contract
	now    sim.Time
	height uint64
	events *[]Event // where Emit publishes; nil discards (reads, test envs)
}

// Errors shared by contracts.
var (
	ErrUnknownMethod   = errors.New("chain: unknown contract method")
	ErrBadArgs         = errors.New("chain: wrong argument type for method")
	ErrUnknownContract = errors.New("chain: no contract at address")
)

// Now returns the current block timestamp.
func (e *Env) Now() sim.Time { return e.now }

// Height returns the current block height.
func (e *Env) Height() uint64 { return e.height }

// Sender returns the immediate caller (msg.sender).
func (e *Env) Sender() Addr { return e.sender }

// Origin returns the original transaction sender (tx.origin).
func (e *Env) Origin() Addr { return e.origin }

// Self returns the executing contract's address.
func (e *Env) Self() Addr { return e.self }

// ChainID returns the hosting chain's identifier.
func (e *Env) ChainID() ID { return e.chain.cfg.ID }

// Write charges for n writes to long-lived storage.
func (e *Env) Write(n int) { e.meter.Charge(e.label, gas.OpWrite, uint64(n)) }

// Read charges for n reads from long-lived storage.
func (e *Env) Read(n int) { e.meter.Charge(e.label, gas.OpRead, uint64(n)) }

// Arith charges for n units of arithmetic / transient memory.
func (e *Env) Arith(n int) { e.meter.Charge(e.label, gas.OpArith, uint64(n)) }

// VerifySig verifies one signature, charging gas for it. Gas prices the
// on-chain work (§7.1), so a verification the chain's memo answers costs
// the same as one it computes.
func (e *Env) VerifySig(pub ed25519.PublicKey, msg, s []byte) bool {
	e.meter.Charge(e.label, gas.OpSigVerify, 1)
	return e.chain.cfg.VerifyMemo.Verify(pub, msg, s)
}

// VerifyPath verifies a path signature against the chain's keyring,
// charging gas per signature verification performed.
func (e *Env) VerifyPath(p sig.PathSig) error {
	var n int
	err := p.VerifyWith(e.chain.cfg.VerifyMemo, e.chain.cfg.Keys, &n)
	e.meter.Charge(e.label, gas.OpSigVerify, uint64(n))
	return err
}

// VerifyCertificate verifies a quorum certificate against a committee,
// charging gas per signature verification performed — up to and
// including the one that fails, if any.
func (e *Env) VerifyCertificate(cert bft.Certificate, committee bft.Committee) error {
	var n int
	err := cert.VerifyWith(e.chain.cfg.VerifyMemo, committee, &n)
	if n > 0 { // a certificate rejected before any signature check costs none
		e.meter.Charge(e.label, gas.OpSigVerify, uint64(n))
	}
	return err
}

// Key returns the registered public key for a party, if any.
func (e *Env) Key(party string) (ed25519.PublicKey, bool) {
	k, ok := e.chain.cfg.Keys[party]
	return k, ok
}

// Emit buffers an event; it is published only if the transaction succeeds.
func (e *Env) Emit(kind string, data any) {
	e.meter.Charge(e.label, gas.OpEvent, 1)
	if e.events == nil {
		return
	}
	*e.events = append(*e.events, Event{
		Chain:    e.chain.cfg.ID,
		Height:   e.height,
		Time:     e.now,
		Contract: e.self,
		Kind:     kind,
		Data:     data,
		Sender:   e.origin,
		Topic:    topicOf(data),
	})
}

// Call invokes a method on another contract on the same chain. The callee
// sees this contract as the sender, as with Ethereum message calls.
// Events emitted by the callee are published with the caller's transaction.
func (e *Env) Call(target Addr, method string, args any) (any, error) {
	ct, ok := e.chain.contracts[target]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, target)
	}
	sub := &Env{
		chain:  e.chain,
		meter:  e.meter,
		label:  e.label,
		origin: e.origin,
		sender: e.self,
		self:   target,
		now:    e.now,
		height: e.height,
		events: e.events,
	}
	var mark int
	if e.events != nil {
		mark = len(*e.events)
	}
	res, err := ct.Invoke(sub, method, args)
	if err != nil && e.events != nil {
		*e.events = (*e.events)[:mark] // a failed call's events are never published
	}
	return res, err
}

// Query performs a gas-free read-only call on a contract. The contract's
// read methods must not mutate state. All queries on a chain read through
// one Env, re-aimed per call; the simulation is single-threaded and no
// contract can reach Query, so reads never nest.
func (c *Chain) Query(target Addr, method string, args any) (any, error) {
	ct, ok := c.contracts[target]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, target)
	}
	env := c.readEnv
	env.self, env.now, env.height = target, c.sched.Now(), c.height
	return ct.Invoke(env, method, args)
}

// TestEnv returns an Env executing as the contract deployed at self,
// charging the chain's real meter under the "test" label. It exists so
// tests and protocol drivers can exercise contract internals directly;
// transaction execution remains the normal entry point.
func (c *Chain) TestEnv(self Addr) *Env {
	return &Env{
		chain:  c,
		meter:  c.meter,
		label:  "test",
		origin: self,
		sender: self,
		self:   self,
		now:    c.sched.Now(),
		height: c.height,
	}
}
