package chain

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

// chainRun is everything a chain script lets an observer see: every
// delivery and synchronous callback in order, each receipt with its tx
// fields, the scheduler's step count and the chain's folded metrics.
type chainRun struct {
	log      []string
	receipts []Receipt // Tx cleared; its fields are in txs
	txs      []string
	steps    uint64
	metrics  obs.Snapshot
	gas      gas.Snapshot
}

// chainScript deploys two contracts on c, subscribes every kind of
// observer, and submits plain, failing, topical, tipped and bundled
// transactions for two deals, running sched until limit.
func chainScript(c *Chain, sched *sim.Scheduler, limit sim.Time) *chainRun {
	run := &chainRun{}
	logf := func(format string, a ...any) {
		run.log = append(run.log, fmt.Sprintf("%d ", sched.Now())+fmt.Sprintf(format, a...))
	}
	c.MustDeploy("ctr", &counter{})
	c.MustDeploy("tag", &tagger{})
	c.Subscribe(func(ev Event) { logf("all %s %v %s", ev.Kind, ev.Data, ev.Topic) })
	c.SubscribeTopic("d1", nil, func(ev Event) { logf("d1 %s %v", ev.Kind, ev.Data) })
	c.SubscribeTopic("d2", func(ev Event) bool { return ev.Kind == "x" }, func(ev Event) { logf("d2 %v", ev.Data) })
	c.SubscribeMempool("d1", nil, func(p PendingTx) { logf("gossip %s %s %d", p.Sender, p.Method, p.Tip) })
	c.SubscribeReceipts(func(r *Receipt) { logf("receipt %s %d", r.Tx.Label, r.Height) })
	c.SubscribeBundleBids(func(b BundleGossip) { logf("bid %+v", b) })
	c.SubscribeAuctions(func(r *AuctionRecord) { logf("auction %d winners", len(r.Winners)) })
	c.SubscribeBlocks(func(b *BlockSummary) {
		logf("block %+v, loss streaks %d %d", *b, c.BundleLossStreak("d1"), c.BundleLossStreak("d2"))
	})
	// Two three-slot bundles race for the first block: on a chain of
	// three slots per block one of them loses.
	for k := 0; k < 6; k++ {
		deal := fmt.Sprintf("d%d", 1+k%2)
		c.SubmitBundled(BundleTx{Deal: deal, PerSlot: uint64(2 + 7*(k%2)),
			Tx: &Tx{Sender: Addr(deal), Contract: "ctr", Method: "inc", Label: deal + "/b"}})
	}
	for i := 0; i < 12; i++ {
		deal := fmt.Sprintf("d%d", 1+i%2)
		onReceipt := func(r *Receipt) { logf("own %s %v %v", r.Tx.Label, r.Result, r.Err) }
		switch i % 4 {
		case 0:
			c.Submit(&Tx{Sender: "alice", Contract: "ctr", Method: "inc", Label: "inc", Tip: uint64(i), OnReceipt: onReceipt})
		case 1:
			c.Submit(&Tx{Sender: "bob", Contract: "tag", Method: "x", Args: note{deal, i}, Label: deal + "/x", OnReceipt: onReceipt})
		case 2:
			c.Submit(&Tx{Sender: "carol", Contract: "ctr", Method: "fail", Label: "fail", Tip: 3, OnReceipt: onReceipt})
		default:
			c.SubmitBundled(BundleTx{Deal: deal, PerSlot: uint64(i), Deadline: 200,
				Tx: &Tx{Sender: Addr(deal), Contract: "tag", Method: "y", Args: note{deal, i}, Label: deal + "/y", OnReceipt: onReceipt}})
		}
		if i%5 == 4 {
			sched.RunUntil(sched.Now() + 7)
		}
	}
	sched.RunUntil(limit)
	for _, r := range c.Receipts() {
		tx := r.Tx
		run.txs = append(run.txs, fmt.Sprintf("%s %s %s %v %s %d", tx.Sender, tx.Contract, tx.Method, tx.Args, tx.Label, tx.Tip))
		rc := *r
		rc.Tx = nil
		run.receipts = append(run.receipts, rc)
	}
	run.steps = sched.Steps()
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	run.metrics = reg.Snapshot()
	run.gas = c.Meter().Snapshot()
	return run
}

// TestResetEqualsFresh runs a script part way on a chain, resets the
// chain and its scheduler under another configuration, and runs a second
// script: everything observable must equal the second script on a new
// chain, though the first left transactions, bundles and deliveries
// pending and its subscribers, contracts and fee market in place.
func TestResetEqualsFresh(t *testing.T) {
	fifo := Config{ID: "fifo", BlockInterval: 10, Delays: SyncPolicy{Min: 1, Max: 4},
		Schedule: gas.DefaultSchedule(), MaxBlockTxs: 2}
	auction := Config{ID: "auction", BlockInterval: 10, Delays: GSTPolicy{GST: 40, Min: 1, PreMax: 9, PostMax: 3},
		Schedule: gas.DefaultSchedule(), MaxBlockTxs: 3, FeeMarket: &feemarket.Config{Initial: 100}, Bundles: true,
		OutageFrom: 20, OutageUntil: 45}
	for _, tc := range []struct {
		name string
		a, b Config
	}{{"auction-then-fifo", auction, fifo}, {"fifo-then-auction", fifo, auction}, {"auction-twice", auction, auction}} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			c := New(tc.a, sched, sim.NewRNG(3))
			chainScript(c, sched, 30)
			if sched.Pending() == 0 {
				t.Fatal("script A left nothing pending; the reset drops nothing")
			}
			sched.Reset()
			c.Reset(tc.b, sched, sim.NewRNG(5))
			got := chainScript(c, sched, 1<<30)

			freshSched := sim.NewScheduler()
			want := chainScript(New(tc.b, freshSched, sim.NewRNG(5)), freshSched, 1<<30)
			if !reflect.DeepEqual(got.log, want.log) {
				t.Errorf("deliveries after a reset:\n%v\nfresh:\n%v", got.log, want.log)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("receipts, steps, metrics or gas after a reset differ from fresh:\n%+v\n%+v", got, want)
			}
		})
	}
}
