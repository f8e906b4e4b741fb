package party

import (
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// TestBidFollowsTheChain: a compliant party's bid depends only on its
// deadline pressure and on what its chain prices. On a fee-market chain
// the tip climbs from 1 at deal start to 16 at the timelock horizon; on
// a FIFO chain it is 0, whatever the pressure; and a transaction joins
// the deal's bundle exactly when the chain runs the bundle auction.
func TestBidFollowsTheChain(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000) // horizon t0 + (3+1)Δ = 6000
	newChain := func(sched *sim.Scheduler, fees, bundles bool) *chain.Chain {
		cfg := chain.Config{
			ID: "coinchain", BlockInterval: 10, Delays: chain.SyncPolicy{Min: 1, Max: 3},
			Schedule: gas.DefaultSchedule(), Bundles: bundles,
		}
		if fees {
			cfg.FeeMarket = &feemarket.Config{Initial: 100}
		}
		return chain.New(cfg, sched, sim.NewRNG(1))
	}

	sched := sim.NewScheduler()
	priced, fifo := newChain(sched, true, false), newChain(sched, false, false)
	p := New("alice", Config{Spec: spec, Protocol: ProtoTimelock, Sched: sched})
	for _, step := range []struct {
		at  sim.Time
		tip uint64
	}{{0, 1}, {1500, 5}, {3000, 9}, {6000, 16}, {9000, 16}} {
		sched.RunUntil(step.at)
		if got := p.tipFor(priced); got != step.tip {
			t.Errorf("t=%d: fee-market tip %d, want %d", step.at, got, step.tip)
		}
		if got := p.tipFor(fifo); got != 0 {
			t.Errorf("t=%d: FIFO tip %d, want 0", step.at, got)
		}
	}

	for _, tc := range []struct {
		name          string
		fees, bundles bool
	}{
		{"fifo", false, false},
		{"fifo-bundles", false, true}, // bundles need a fee market
		{"fee-market", true, false},
		{"fee-market-bundles", true, true},
	} {
		sched := sim.NewScheduler()
		c := newChain(sched, tc.fees, tc.bundles)
		p := New("alice", Config{Spec: spec, Protocol: ProtoTimelock, Sched: sched,
			Chains: map[chain.ID]*chain.Chain{c.ID(): c}})
		var bids, tips []uint64
		c.SubscribeBundleBids(func(g chain.BundleGossip) {
			if g.Deal == spec.ID {
				bids = append(bids, g.PerSlot)
			}
		})
		c.SubscribeMempool("", nil, func(ptx chain.PendingTx) {
			tips = append(tips, ptx.Tip)
		})
		p.submitTx(c, "coin-escrow", "noop", "test", nil, p.tipFor(c), nil)
		sched.Run()
		if len(tips) != 1 {
			t.Fatalf("%s: %d transactions published, want 1", tc.name, len(tips))
		}
		if want := c.Bundled(); (len(bids) > 0) != want {
			t.Errorf("%s: bundle bids %v gossiped, want bundled=%t", tc.name, bids, want)
		}
		if len(bids) > 0 && bids[0] != 1 {
			t.Errorf("%s: bundle bid %d per slot at deal start, want 1", tc.name, bids[0])
		}
		wantTip := uint64(0)
		if tc.fees {
			wantTip = 1 // at deal start
		}
		if tips[0] != wantTip {
			t.Errorf("%s: transaction tipped %d, want %d", tc.name, tips[0], wantTip)
		}
	}
}
