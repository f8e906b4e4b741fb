package chain

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// sealedTx is what one included transaction looks like from outside:
// its receipt's block-side fields and when the sender heard about it.
type sealedTx struct {
	Label              string
	Height             uint64
	Time, ArrivedAt    sim.Time
	TipPaid, BaseFee   uint64
	Deferrals          int
	PricedOut          bool
	OutbidBy           Addr
	receiptDeliveredAt sim.Time
}

// TestSelectionModesShareOneSeal drives one seeded 40-transaction script
// through a tip-ordered chain and through a bundled chain nobody routes
// a bundle on. With only loose transactions the auction's winner
// determination picks what the tip sort picks, so everything downstream
// of selection — the one sealing routine — must come out identical:
// receipts, sender notification times, scheduler steps, gas, base fee.
// The two selections differ, by design, only in how they blame a
// deferral: the mempool builder marks a transaction priced out only if
// the marginal included bid strictly out-tipped it, the auction marks
// every loser displaced.
func TestSelectionModesShareOneSeal(t *testing.T) {
	type outcome struct {
		txs     []sealedTx
		steps   uint64
		gasUsed uint64
		baseFee uint64
	}
	drive := func(bundles bool) outcome {
		sched := sim.NewScheduler()
		c := New(Config{
			ID: "seam", BlockInterval: 10, Delays: SyncPolicy{Min: 1, Max: 3},
			Schedule: gas.DefaultSchedule(), MaxBlockTxs: 3,
			FeeMarket: &feemarket.Config{Initial: 100}, Bundles: bundles,
		}, sched, sim.NewRNG(1))
		c.MustDeploy("ctr", &counter{})
		delivered := make(map[*Receipt]sim.Time)
		script := sim.NewRNG(42)
		for i := 0; i < 40; i++ {
			c.SubmitAfter(sim.Duration(script.Intn(60)), &Tx{
				Sender: Addr(fmt.Sprintf("p%d", i%7)), Contract: "ctr", Method: "inc",
				Label: fmt.Sprintf("tx%02d", i), Tip: uint64(script.Intn(6)),
				OnReceipt: func(r *Receipt) { delivered[r] = sched.Now() },
			})
		}
		sched.Run()
		out := outcome{steps: sched.Steps(), gasUsed: c.Meter().Used(), baseFee: c.FeeMarket().BaseFee()}
		for _, r := range c.Receipts() {
			at, ok := delivered[r]
			if !ok {
				t.Fatalf("bundles=%v: %s never reached its sender", bundles, r.Tx.Label)
			}
			out.txs = append(out.txs, sealedTx{
				Label: r.Tx.Label, Height: r.Height, Time: r.Time, ArrivedAt: r.ArrivedAt,
				TipPaid: r.TipPaid, BaseFee: r.BaseFee, Deferrals: r.Deferrals,
				PricedOut: r.PricedOut, OutbidBy: r.OutbidBy, receiptDeliveredAt: at,
			})
		}
		return out
	}

	tipOrdered, auctioned := drive(false), drive(true)
	if len(tipOrdered.txs) != 40 || len(auctioned.txs) != 40 {
		t.Fatalf("included %d and %d transactions, want 40 each", len(tipOrdered.txs), len(auctioned.txs))
	}

	// Blame is per mode; check it, then blank it for the comparison.
	capacityQueued := 0
	for i := range tipOrdered.txs {
		tx := &tipOrdered.txs[i]
		if tx.PricedOut && (tx.Deferrals == 0 || tx.OutbidBy == "") {
			t.Fatalf("tip-ordered: %+v priced out without a deferral or an outbidder", *tx)
		}
		if !tx.PricedOut && tx.OutbidBy != "" {
			t.Fatalf("tip-ordered: %+v names an outbidder but was not priced out", *tx)
		}
		if tx.Deferrals > 0 && !tx.PricedOut {
			capacityQueued++
		}
		tx.PricedOut, tx.OutbidBy = false, ""
	}
	if capacityQueued == 0 {
		t.Fatal("script never queued a transaction behind equal tips; the modes' blame rules are not told apart")
	}
	for i := range auctioned.txs {
		tx := &auctioned.txs[i]
		if tx.PricedOut != (tx.Deferrals > 0) || tx.PricedOut != (tx.OutbidBy != "") {
			t.Fatalf("auction: every deferral is a displacement, got %+v", *tx)
		}
		tx.PricedOut, tx.OutbidBy = false, ""
	}

	for i := range tipOrdered.txs {
		if tipOrdered.txs[i] != auctioned.txs[i] {
			t.Fatalf("receipt %d differs:\n tip-ordered %+v\n auction     %+v", i, tipOrdered.txs[i], auctioned.txs[i])
		}
	}
	tipOrdered.txs, auctioned.txs = nil, nil
	if !reflect.DeepEqual(tipOrdered, auctioned) {
		t.Fatalf("after identical receipts: tip-ordered %+v, auction %+v", tipOrdered, auctioned)
	}
}
