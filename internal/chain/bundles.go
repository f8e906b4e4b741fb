package chain

import (
	"math/bits"
	"sort"

	"xdeal/internal/bundle"
	"xdeal/internal/sim"
)

// This file threads the combinatorial block-space auction (see
// internal/bundle) through the chain: deals route their pending
// transactions into per-deal all-or-nothing bundles carrying one
// aggregate bid, the block builder runs winner determination over the
// bundles plus the loose tip-bidding mempool, and rival bundle bids
// leak through gossip exactly as loose tips do — which is what a
// bundle-griefing adversary outbids.
//
// A bundle's aggregate bid is expressed per slot (bid = per-slot quote
// × transaction count): per-slot is the bundle's density, the exact
// quantity greedy winner determination ranks by, so outbidding a rival
// bundle means beating its per-slot quote — regardless of how many
// transactions either side is carrying.

// BundleTx routes one transaction into a deal's open bundle on this
// chain instead of the loose mempool.
type BundleTx struct {
	// Deal keys the bundle: all transactions routed under one deal id
	// share the deal's current open bundle and win or defer together.
	Deal string
	// Tx is the transaction itself; its Tip is ignored (the bundle's
	// aggregate bid replaces per-transaction tips).
	Tx *Tx
	// PerSlot is the caller's per-slot bid quote. The bundle's quote is
	// the maximum over its transactions' quotes and any later bumps, so
	// concurrent parties of one deal can only raise the deal's bid.
	PerSlot uint64
	// Deadline, when non-zero, is the routing deal's timelock horizon;
	// the bundle keeps the earliest across its transactions (auction
	// records expose it, so reports can measure deadline slack).
	Deadline sim.Time
	// OnAuction, when non-nil, is invoked after each auction the bundle
	// entered — won true exactly once, at inclusion; won false on each
	// deferral, with the running deferral count — after the chain's
	// notification delay. Losing bidders escalate through it.
	OnAuction func(won bool, deferrals int)
}

// BundleGossip is the publicly gossiped view of a pending bundle bid:
// who is bidding (by deal), how much block space the bundle wants, and
// its per-slot quote — exactly what a rival needs to out-density it.
type BundleGossip struct {
	Chain   ID
	Deal    string
	Slots   int // transactions routed so far (arrived or in flight)
	PerSlot uint64
	Bid     uint64 // aggregate: PerSlot × Slots, saturating
}

// BundleFate is one bundle's outcome in one auction.
type BundleFate struct {
	Deal      string
	Slots     int // arrived transactions the bundle auctioned
	PerSlot   uint64
	Bid       uint64
	Deferrals int // consecutive auctions lost so far, this one included
	Deadline  sim.Time
}

// AuctionRecord reports one block's combinatorial auction, delivered
// synchronously to SubscribeAuctions observers (measurement apparatus,
// like SubscribeReceipts — not a channel parties may react through).
type AuctionRecord struct {
	Chain    ID
	Height   uint64
	Time     sim.Time
	Capacity int
	Winners  []BundleFate // included bundles, in inclusion order
	Deferred []BundleFate // bundles deferred intact, arrival order
	// LooseIncluded counts unbundled transactions that filled residual
	// capacity.
	LooseIncluded int
	// Revenue is the block's take (winning bundle bids plus included
	// loose tips); FIFORevenue is the arrival-order baseline the
	// auction is guaranteed to meet or beat.
	Revenue     uint64
	FIFORevenue uint64
}

// BlockSummary reports which transaction labels one block included and
// which arrived-but-pending labels it deferred past its capacity.
// Delivered synchronously to SubscribeBlocks observers on every chain
// (bundled or not), it is the uniform instrumentation exclusion
// metrics are computed from: a deal was excluded from a block when its
// label sits in Deferred while a rival's sits in Included.
type BlockSummary struct {
	Chain  ID
	Height uint64
	Time   sim.Time
	// Included holds the labels of the block's transactions, execution
	// order; Deferred the labels of transactions that had arrived (in
	// the mempool or in an arrived bundle) but were left for a later
	// block.
	Included []string
	Deferred []string
}

// pendingBundle is one deal's open or auction-pending bundle.
type pendingBundle struct {
	deal     string
	seq      uint64 // arrival rank among auction candidates
	perSlot  uint64
	deadline sim.Time
	txs      []*Tx // arrived transactions, submission order
	routed   int   // transactions routed (arrived + in flight)
	full     bool  // sealed at block capacity; a successor takes new txs
	won      bool  // included; late arrivals route to the successor
	defers   int   // consecutive auctions lost
	cbs      []func(won bool, deferrals int)
}

// satMul is a saturating uint64 multiply (aggregate bids near the top
// of the range must not wrap into cheap ones).
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return ^uint64(0)
	}
	return lo
}

// bid is the bundle's current aggregate bid over its arrived slots.
func (b *pendingBundle) bid() uint64 { return satMul(b.perSlot, uint64(len(b.txs))) }

// Bundled reports whether this chain runs the combinatorial bundle
// auction (Config.Bundles on a fee-market chain).
func (c *Chain) Bundled() bool { return c.cfg.Bundles && c.fees != nil }

// SubmitBundled publishes a transaction into its deal's open bundle:
// the transaction reaches the bundle after the submit delay, and the
// bundle competes for whole blocks all-or-nothing in every auction
// from then on. On chains not running the bundle auction the
// transaction falls back to a plain Submit with its PerSlot quote as
// tip, so callers need not special-case FIFO or bundle-free worlds.
//
// Like Submit, SubmitBundled is safe to call from multiple goroutines
// while the scheduler is idle. Bundle bids are public: every routing
// gossips the bundle's slots and per-slot quote to bundle-bid
// observers after their notification delays.
func (c *Chain) SubmitBundled(bt BundleTx) {
	if !c.Bundled() {
		bt.Tx.Tip = bt.PerSlot
		c.Submit(bt.Tx)
		return
	}
	c.submitMu.Lock()
	tx := bt.Tx
	tx.seq = c.txSeq
	c.txSeq++
	tx.submittedAt = c.sched.Now()
	b := c.openBundles[bt.Deal]
	if b == nil || b.full || b.won {
		nb := &pendingBundle{deal: bt.Deal, seq: c.txSeq}
		c.txSeq++
		if b != nil {
			// A successor inherits its predecessor's standing quote and
			// deadline so a won or sealed bundle's escalation carries
			// over instead of collapsing back to the opening bid.
			nb.perSlot = b.perSlot
			nb.deadline = b.deadline
		}
		b = nb
		c.openBundles[bt.Deal] = b
		c.bundles = append(c.bundles, b)
	}
	b.routed++
	if b.perSlot < bt.PerSlot {
		b.perSlot = bt.PerSlot
	}
	if bt.Deadline > 0 && (b.deadline == 0 || bt.Deadline < b.deadline) {
		b.deadline = bt.Deadline
	}
	if cap := c.cfg.MaxBlockTxs; cap > 0 && b.routed >= cap {
		// A bundle wider than a whole block can never win: seal at
		// capacity and let the next routing open a successor.
		b.full = true
	}
	cb := bt.OnAuction
	c.sched.After(c.delay(), func() { c.arriveBundled(b, tx, cb) })
	c.gossipTx(tx)
	c.gossipBundle(b)
	c.submitMu.Unlock()
}

// arriveBundled lands a routed transaction in its bundle (or, when the
// bundle won while the transaction was in flight, in the deal's next
// open bundle). The transaction's OnAuction callback attaches to the
// bundle it actually lands in — a bundle's auctions cover only its
// arrived transactions, so an in-flight transaction must not hear the
// predecessor's win, and its owner must keep hearing the successor's
// deferrals.
func (c *Chain) arriveBundled(b *pendingBundle, tx *Tx, cb func(won bool, deferrals int)) {
	if b.won {
		nb := c.openBundles[b.deal]
		if nb == nil || nb.full || nb.won {
			nb = &pendingBundle{
				deal: b.deal, seq: c.txSeq,
				perSlot: b.perSlot, deadline: b.deadline,
			}
			c.txSeq++
			c.openBundles[b.deal] = nb
			c.bundles = append(c.bundles, nb)
		}
		b = nb
		b.routed++
		if cap := c.cfg.MaxBlockTxs; cap > 0 && b.routed >= cap {
			b.full = true
		}
	}
	if cb != nil {
		b.cbs = append(b.cbs, cb)
	}
	tx.arrivedAt = c.sched.Now()
	b.txs = append(b.txs, tx)
	c.scheduleBlock()
}

// BumpBundleBid raises the per-slot quote of every pending bundle of
// the deal to at least perSlot (bids only ever rise — an auction bid
// is a commitment, not a retractable offer). Returns whether any
// bundle's quote rose. Raises are gossiped like fresh bids.
func (c *Chain) BumpBundleBid(deal string, perSlot uint64) bool {
	raised := false
	for _, b := range c.bundles {
		if b.deal != deal || b.won || b.perSlot >= perSlot {
			continue
		}
		b.perSlot = perSlot
		raised = true
		c.gossipBundle(b)
	}
	return raised
}

// BundleLossStreak reports how many consecutive auctions the deal's
// bundles have now lost on this chain without a win (0 after any win
// or before the first auction). A deal whose bundle keeps losing is a
// deal whose timelock is at risk — this is the realized congestion
// signal hedging premiums surcharge against.
func (c *Chain) BundleLossStreak(deal string) int { return c.bundleStreak[deal] }

// SubscribeBundleBids registers a bundle-bid observer: fn receives
// every subsequently published or raised bundle bid after the
// observer's notification delay. The returned function unsubscribes.
func (c *Chain) SubscribeBundleBids(fn func(BundleGossip)) func() {
	return c.bbSubs.add("", subscription[BundleGossip]{fn: fn})
}

// SubscribeAuctions registers a synchronous auction observer
// (measurement apparatus; see AuctionRecord). The returned function
// unsubscribes.
func (c *Chain) SubscribeAuctions(fn func(*AuctionRecord)) func() {
	return register(&c.aucSubs, fn)
}

// SubscribeBlocks registers a synchronous per-block observer
// (measurement apparatus; see BlockSummary). The returned function
// unsubscribes.
func (c *Chain) SubscribeBlocks(fn func(*BlockSummary)) func() {
	return register(&c.blkSubs, fn)
}

// gossipBundle fans a bundle's current bid out to bundle-bid
// observers, each after its own notification delay (see fanOut).
func (c *Chain) gossipBundle(b *pendingBundle) {
	if c.bbSubs.live() == 0 {
		return
	}
	fanBids(c, &c.bbSubs, "", BundleGossip{
		Chain: c.cfg.ID, Deal: b.deal, Slots: b.routed,
		PerSlot: b.perSlot, Bid: satMul(b.perSlot, uint64(b.routed)),
	})
}

// readyBundles returns the bundles with at least one arrived
// transaction — the auction's candidates — in arrival order.
func (c *Chain) readyBundles() []*pendingBundle {
	var ready []*pendingBundle
	for _, b := range c.bundles {
		if len(b.txs) > 0 {
			ready = append(ready, b)
		}
	}
	return ready
}

// auction carries one block's bundle auction from selection to the
// bookkeeping seal slots in after execution: the record under
// construction and the bundles that competed.
type auction struct {
	rec   *AuctionRecord
	ready []*pendingBundle
}

// selectAuction picks a block on a bundled chain: winner determination
// over the arrived bundles plus the loose mempool (greedy density,
// arrival-seq tie-break, all-or-nothing, FIFO revenue floor — see
// internal/bundle). A winning bundle's transactions are included in
// submission order and split its aggregate bid across their fee charges
// (remainder on the first), so the fee ledger's take equals the bid
// exactly. Deferred bundles stay queued intact with their deferral
// counts advanced; deferred loose transactions stay in the mempool.
// Every deferral in an auction block is a displacement by winning bids.
func (c *Chain) selectAuction() ([]inclusion, *auction) {
	ready := c.readyBundles()
	loose := c.mempool
	cands := make([]bundle.Candidate, 0, len(ready)+len(loose))
	for _, b := range ready {
		cands = append(cands, bundle.Candidate{
			Deal: b.deal, Slots: len(b.txs), Bid: b.bid(), Seq: b.seq,
		})
	}
	for _, tx := range loose {
		cands = append(cands, bundle.Candidate{Slots: 1, Bid: tx.Tip, Seq: tx.seq})
	}
	out := bundle.SelectWinners(c.cfg.MaxBlockTxs, cands)
	if len(out.Winners) == 0 {
		return nil, nil
	}

	// Assemble the block in inclusion order, with each transaction's
	// fee charge precomputed (bundle bids split per transaction).
	rec := &AuctionRecord{
		Chain: c.cfg.ID, Capacity: c.cfg.MaxBlockTxs,
		Revenue: out.Revenue, FIFORevenue: out.FIFORevenue,
	}
	block := c.blockBuf[:0]
	looseWon := make([]bool, len(loose))
	for _, i := range out.Winners {
		if i >= len(ready) {
			tx := loose[i-len(ready)]
			looseWon[i-len(ready)] = true
			block = append(block, inclusion{tx: tx, tip: tx.Tip})
			rec.LooseIncluded++
			continue
		}
		// The won bundle stays registered as the deal's last open
		// bundle: the next routed transaction finds it, sees won, and
		// opens a successor inheriting its standing quote and deadline —
		// so escalation (a griefer's raise, a deadline bidder's climb)
		// carries across wins on every path.
		b := ready[i]
		b.won = true
		sort.Slice(b.txs, func(x, y int) bool { return b.txs[x].seq < b.txs[y].seq })
		bid := b.bid()
		share := bid / uint64(len(b.txs))
		first := bid - share*uint64(len(b.txs)-1)
		for j, tx := range b.txs {
			tip := share
			if j == 0 {
				tip = first
			}
			block = append(block, inclusion{tx: tx, tip: tip})
		}
		rec.Winners = append(rec.Winners, c.fate(b))
	}
	c.blockBuf = block[:0]

	// Advance the bundle queue and the deferral counts; the marginal
	// (last-included) transaction names the outbidder for causal
	// attribution.
	marginal := block[len(block)-1].tx.Sender
	keep := c.bundles[:0]
	for _, b := range c.bundles {
		if b.won {
			continue
		}
		keep = append(keep, b)
		if len(b.txs) == 0 {
			continue // nothing arrived yet: not in this auction
		}
		b.defers++
		for _, tx := range b.txs {
			displace(tx, marginal)
		}
		rec.Deferred = append(rec.Deferred, c.fate(b))
	}
	c.bundles = keep
	c.mempool = c.mpFree[:0]
	for i, tx := range loose {
		if !looseWon[i] {
			displace(tx, marginal)
			c.mempool = append(c.mempool, tx)
		}
	}
	c.mpFree = loose[:0]
	return block, &auction{rec: rec, ready: ready}
}

// displace marks one lost auction on tx: deferred by winning bids, the
// last of which came from by.
func displace(tx *Tx, by Addr) {
	tx.deferrals++
	tx.pricedOut = true
	tx.outbidBy = by
}

// closeAuction runs once the auction's block has executed: it rolls the
// per-deal loss streaks — a win clears the deal's streak, an auction
// lost with no win in the same block extends it — and hands the record
// to the auction observers. Streaks move only now because a winning
// bundle's transactions (a hedge bind pricing its premium, say) must
// read the streak the deal realized *before* this inclusion — the
// consecutive losses it just suffered — not the reset this win applies.
func (c *Chain) closeAuction(auc *auction, now sim.Time) {
	rolled := make(map[string]bool, len(auc.ready))
	for _, b := range auc.ready {
		if b.won {
			delete(c.bundleStreak, b.deal)
			rolled[b.deal] = true
		}
	}
	for _, b := range auc.ready {
		if !rolled[b.deal] { // once per deal, however many bundles it lost with
			c.bundleStreak[b.deal]++
			rolled[b.deal] = true
		}
	}
	auc.rec.Height, auc.rec.Time = c.height, now
	notify(&c.aucSubs, auc.rec)
}

// notifyBidders schedules the auction outcome notifications to the
// bundles' owners. The deferral count is snapshotted: the callback must
// report this auction's standing, not whatever later auctions advanced
// it to.
func (c *Chain) notifyBidders(auc *auction) {
	for _, b := range auc.ready {
		won, defers := b.won, b.defers
		for _, cb := range b.cbs {
			c.sched.After(c.delay(), func() { cb(won, defers) })
		}
		if won {
			b.cbs = nil
		}
	}
}

// fate snapshots a bundle's auction outcome.
func (c *Chain) fate(b *pendingBundle) BundleFate {
	return BundleFate{
		Deal: b.deal, Slots: len(b.txs), PerSlot: b.perSlot,
		Bid: b.bid(), Deferrals: b.defers, Deadline: b.deadline,
	}
}

// emitBlockSummary reports the block just sealed to the block observers,
// synchronously (measurement apparatus): what it included, and everything
// that had arrived — in the mempool or in a bundle — and is still pending.
func (c *Chain) emitBlockSummary(block []inclusion, now sim.Time) {
	bs := &BlockSummary{Chain: c.cfg.ID, Height: c.height, Time: now}
	bs.Included = make([]string, 0, len(block))
	for _, in := range block {
		bs.Included = append(bs.Included, in.tx.Label)
	}
	for _, tx := range c.mempool {
		bs.Deferred = append(bs.Deferred, tx.Label)
	}
	for _, b := range c.bundles {
		for _, tx := range b.txs {
			bs.Deferred = append(bs.Deferred, tx.Label)
		}
	}
	notify(&c.blkSubs, bs)
}
