package chain

import (
	"fmt"
	"testing"

	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// bundleChain builds a bundled fee-market chain with the given block
// capacity.
func bundleChain(t *testing.T, maxBlockTxs int) (*Chain, *sim.Scheduler, *counter) {
	t.Helper()
	sched := sim.NewScheduler()
	c := New(Config{
		ID:            "bundlechain",
		BlockInterval: 10,
		Delays:        SyncPolicy{Min: 1, Max: 3},
		Schedule:      gas.DefaultSchedule(),
		MaxBlockTxs:   maxBlockTxs,
		FeeMarket:     &feemarket.Config{Initial: 100},
		Bundles:       true,
	}, sched, sim.NewRNG(1))
	ctr := &counter{}
	c.MustDeploy("ctr", ctr)
	return c, sched, ctr
}

// routeBundle routes n transactions for a deal at one per-slot quote.
func routeBundle(c *Chain, deal string, n int, perSlot uint64, onAuction func(bool, int)) {
	for i := 0; i < n; i++ {
		c.SubmitBundled(BundleTx{
			Deal: deal, PerSlot: perSlot, OnAuction: onAuction,
			Tx: &Tx{Sender: Addr(deal), Contract: "ctr", Method: "inc", Label: deal + "/t"},
		})
	}
}

// TestBundleAllOrNothingInclusion: two bundles compete for a block that
// fits only one; the denser bundle wins whole, the other is deferred
// intact and wins the next block — never split across blocks.
func TestBundleAllOrNothingInclusion(t *testing.T) {
	c, sched, ctr := bundleChain(t, 4)
	var recs []*AuctionRecord
	c.SubscribeAuctions(func(r *AuctionRecord) { recs = append(recs, r) })

	routeBundle(c, "cheap", 3, 2, nil) // density 2, arrives first
	routeBundle(c, "rich", 3, 9, nil)  // density 9: must win block 1
	sched.Run()

	if ctr.n != 6 {
		t.Fatalf("executed %d transactions, want 6", ctr.n)
	}
	if len(recs) != 2 {
		t.Fatalf("auctions run = %d, want 2", len(recs))
	}
	first, second := recs[0], recs[1]
	if len(first.Winners) != 1 || first.Winners[0].Deal != "rich" {
		t.Fatalf("block 1 winners = %+v, want [rich]", first.Winners)
	}
	if len(first.Deferred) != 1 || first.Deferred[0].Deal != "cheap" {
		t.Fatalf("block 1 deferred = %+v, want [cheap]", first.Deferred)
	}
	if first.Deferred[0].Slots != 3 {
		t.Fatalf("cheap deferred with %d slots, want 3 (intact)", first.Deferred[0].Slots)
	}
	if len(second.Winners) != 1 || second.Winners[0].Deal != "cheap" || second.Winners[0].Slots != 3 {
		t.Fatalf("block 2 winners = %+v, want cheap with 3 slots", second.Winners)
	}
	if second.Winners[0].Deferrals != 1 {
		t.Fatalf("cheap won after %d deferrals, want 1", second.Winners[0].Deferrals)
	}
	// The winning bundle's fee take equals its aggregate bid exactly.
	var tipped uint64
	for _, r := range c.Receipts()[:3] {
		tipped += r.TipPaid
	}
	if tipped != first.Winners[0].Bid {
		t.Fatalf("block 1 tips %d, want the aggregate bid %d", tipped, first.Winners[0].Bid)
	}
}

// TestBundleLossStreakAndBump: a deferred deal's streak counts up until
// a bid bump wins it a block, which resets the streak.
func TestBundleLossStreakAndBump(t *testing.T) {
	c, sched, _ := bundleChain(t, 4)

	routeBundle(c, "victim", 3, 1, nil)
	// The rival keeps its open bundle refilled so the victim loses two
	// auctions, then the victim bumps past the rival's density.
	routeBundle(c, "rival", 3, 5, nil)
	sched.After(15, func() { routeBundle(c, "rival", 3, 5, nil) })
	streaks := make(map[int]int)
	c.SubscribeAuctions(func(r *AuctionRecord) {
		streaks[int(r.Height)] = c.BundleLossStreak("victim")
	})
	sched.After(25, func() {
		if got := c.BundleLossStreak("victim"); got < 1 {
			t.Errorf("victim streak after first loss = %d, want >= 1", got)
		}
		c.BumpBundleBid("victim", 9)
	})
	sched.Run()

	if got := c.BundleLossStreak("victim"); got != 0 {
		t.Fatalf("victim streak after winning = %d, want 0", got)
	}
	if streaks[1] != 1 {
		t.Fatalf("streak after block 1 = %d, want 1", streaks[1])
	}
}

// TestBundleGossipLeaksBids: routing and bumping a bundle gossips its
// deal, slots, and per-slot quote to bundle-bid observers.
func TestBundleGossipLeaksBids(t *testing.T) {
	c, sched, _ := bundleChain(t, 8)
	var got []BundleGossip
	c.SubscribeBundleBids(func(g BundleGossip) { got = append(got, g) })

	routeBundle(c, "d0", 2, 3, nil)
	c.BumpBundleBid("d0", 7)
	sched.Run()

	if len(got) != 3 {
		t.Fatalf("gossip events = %d, want 3 (two routings + one bump)", len(got))
	}
	last := got[len(got)-1]
	if last.Deal != "d0" || last.Slots != 2 || last.PerSlot != 7 || last.Bid != 14 {
		t.Fatalf("final gossip = %+v, want d0 2 slots at 7/slot (bid 14)", last)
	}
}

// TestBundleSealsAtCapacity: a deal routing more transactions than a
// block holds gets successive bundles, each no wider than the block —
// so no bundle can starve by being unfittable.
func TestBundleSealsAtCapacity(t *testing.T) {
	c, sched, ctr := bundleChain(t, 3)
	var widest int
	c.SubscribeAuctions(func(r *AuctionRecord) {
		for _, w := range r.Winners {
			if w.Slots > widest {
				widest = w.Slots
			}
		}
	})
	routeBundle(c, "wide", 8, 2, nil)
	sched.Run()

	if ctr.n != 8 {
		t.Fatalf("executed %d transactions, want all 8", ctr.n)
	}
	if widest > 3 {
		t.Fatalf("a winning bundle carried %d slots past the 3-slot capacity", widest)
	}
}

// TestBundleLooseTxsFillResidualCapacity: loose tip-bidding
// transactions share the auction and fill the capacity a winning
// bundle leaves over.
func TestBundleLooseTxsFillResidualCapacity(t *testing.T) {
	c, sched, _ := bundleChain(t, 4)
	var recs []*AuctionRecord
	c.SubscribeAuctions(func(r *AuctionRecord) { recs = append(recs, r) })

	routeBundle(c, "d0", 3, 5, nil)
	c.Submit(&Tx{Sender: "loose-lo", Contract: "ctr", Method: "inc", Label: "lo", Tip: 1})
	c.Submit(&Tx{Sender: "loose-hi", Contract: "ctr", Method: "inc", Label: "hi", Tip: 8})
	sched.Run()

	if len(recs) == 0 {
		t.Fatal("no auctions ran")
	}
	first := recs[0]
	if len(first.Winners) != 1 || first.Winners[0].Deal != "d0" {
		t.Fatalf("block 1 winners = %+v, want [d0]", first.Winners)
	}
	if first.LooseIncluded != 1 {
		t.Fatalf("block 1 included %d loose txs, want exactly 1 in the residual slot", first.LooseIncluded)
	}
	// The residual slot goes to the higher tip.
	var block1 []*Receipt
	for _, r := range c.Receipts() {
		if r.Height == 1 {
			block1 = append(block1, r)
		}
	}
	found := false
	for _, r := range block1 {
		if r.Tx.Label == "hi" {
			found = true
		}
		if r.Tx.Label == "lo" {
			t.Fatal("low-tip loose tx beat the high-tip one into the residual slot")
		}
	}
	if !found {
		t.Fatal("high-tip loose tx missing from block 1")
	}
}

// TestBundleOnAuctionCallbacks: owners hear every deferral (with the
// running count) and the final win.
func TestBundleOnAuctionCallbacks(t *testing.T) {
	c, sched, _ := bundleChain(t, 2)
	var events []string
	cb := func(won bool, deferrals int) {
		events = append(events, fmt.Sprintf("%v/%d", won, deferrals))
	}
	routeBundle(c, "slow", 2, 1, cb)
	routeBundle(c, "fast", 2, 9, nil)
	sched.After(15, func() { routeBundle(c, "fast2", 2, 9, nil) })
	sched.Run()

	// Each deferral notifies each routed tx's callback once, then the
	// win notifies them all once.
	wins, losses := 0, 0
	for _, e := range events {
		if e[0] == 't' {
			wins++
		} else {
			losses++
		}
	}
	if wins != 2 {
		t.Fatalf("win notifications = %d, want 2 (one per routed tx)", wins)
	}
	if losses < 2 {
		t.Fatalf("loss notifications = %d, want at least one round of 2", losses)
	}
}

// TestBundledChainFallsBackWithoutFeeMarket: Bundles without a fee
// market is inert — SubmitBundled degrades to a plain tipped Submit on
// the FIFO chain, bit for bit.
func TestBundledChainFallsBackWithoutFeeMarket(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID: "fifo", BlockInterval: 10, Delays: SyncPolicy{Min: 1, Max: 3},
		Schedule: gas.DefaultSchedule(), Bundles: true,
	}, sched, sim.NewRNG(1))
	ctr := &counter{}
	c.MustDeploy("ctr", ctr)
	if c.Bundled() {
		t.Fatal("chain reports bundled without a fee market")
	}
	routeBundle(c, "d0", 2, 5, nil)
	sched.Run()
	if ctr.n != 2 {
		t.Fatalf("fallback executed %d transactions, want 2", ctr.n)
	}
}

// TestBlockSummariesUniformAcrossModes: FIFO, tip-ordered and auction
// blocks all emit per-block included/deferred label summaries — the
// shared instrumentation exclusion metrics are computed from.
func TestBlockSummariesUniformAcrossModes(t *testing.T) {
	fees := &feemarket.Config{Initial: 100}
	for _, mode := range []struct {
		name    string
		fees    *feemarket.Config
		bundled bool
	}{
		{"fifo", nil, false},
		{"bundled=false", fees, false},
		{"bundled=true", fees, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			c := New(Config{
				ID: "sum", BlockInterval: 10, Delays: SyncPolicy{Min: 1, Max: 3},
				Schedule: gas.DefaultSchedule(), MaxBlockTxs: 2,
				FeeMarket: mode.fees, Bundles: mode.bundled,
			}, sched, sim.NewRNG(1))
			c.MustDeploy("ctr", &counter{})
			var sums []*BlockSummary
			c.SubscribeBlocks(func(bs *BlockSummary) { sums = append(sums, bs) })
			for i := 0; i < 5; i++ {
				c.Submit(&Tx{Sender: "s", Contract: "ctr", Method: "inc",
					Label: fmt.Sprintf("l%d", i), Tip: uint64(i)})
			}
			sched.Run()
			if len(sums) < 2 {
				t.Fatalf("block summaries = %d, want at least 2 (5 txs, capacity 2)", len(sums))
			}
			var included, deferred int
			for _, bs := range sums {
				included += len(bs.Included)
				deferred += len(bs.Deferred)
			}
			if included != 5 {
				t.Fatalf("summaries included %d labels, want 5", included)
			}
			if deferred == 0 {
				t.Fatal("no deferrals recorded despite 5 txs against capacity 2")
			}
		})
	}
}
