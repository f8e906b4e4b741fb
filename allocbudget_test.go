package xdeal_test

import (
	"testing"

	"xdeal"
)

// allocBudgets are the bytes/deal ceilings the CI gate holds, each
// measured through a whole fixed-seed sweep (generation + worlds +
// evaluation + aggregation). The rule: ceiling = last measurement + 15 %,
// rounded up to the next thousand, and a PR that lowers a measurement
// ratchets its ceiling down with it. Measurements are go1.24,
// linux/amd64, and repeat to within a few bytes.
var allocBudgets = []struct {
	name    string
	deals   int
	ceiling int64
	opts    xdeal.SweepOptions
}{
	// Isolated worlds: 109,543 bytes/deal (119,617 before DealGas stopped
	// merging a second meter and attribution went to compact intervals
	// read off a receipt index; 140,989 before notify deliveries were
	// grouped per delay, executed After events reused and the always-on
	// attribution stopped building the span DAG; 150,371 before the gas
	// meter went flat, After stopped returning a Cancel and mempool
	// gossip was filtered).
	{"isolated", 64, 126_000, xdeal.SweepOptions{Gen: xdeal.GenOptions{
		Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, DoSRate: 0.15,
	}}},
	// Shared arenas of 50 deals on 2 chains with fees, bundle auctions
	// and hedging: 130,889 bytes/deal (182,583 before each deal's meter
	// became a layer over one chain-gas union per chain set and its
	// receipts came from the index; 323,133 before the notify grouping,
	// the reused After events and the span-free attribution).
	{"arena", 200, 151_000, xdeal.SweepOptions{
		Gen: xdeal.GenOptions{Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, Fees: &xdeal.FeeOptions{}},
		Arena: &xdeal.ArenaOptions{
			DealsPerArena: 50, Chains: 2, Bundles: true, Hedge: true,
		},
	}},
}

// TestAllocationBudgetPerDeal is the CI allocation gate: it meters each
// fixed-seed sweep with the benchmark machinery and fails if bytes/deal
// blows its ceiling. Skipped under -short: the race detector's shadow
// allocations would dominate the measurement in the -race -short lane.
func TestAllocationBudgetPerDeal(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race instrumentation")
	}
	for _, budget := range allocBudgets {
		t.Run(budget.name, func(t *testing.T) {
			opts := budget.opts
			opts.Deals, opts.Workers = budget.deals, 1
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := xdeal.Sweep(opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			perDeal := res.AllocedBytesPerOp() / int64(budget.deals)
			t.Logf("allocation budget: %d bytes/deal (ceiling %d)", perDeal, budget.ceiling)
			if perDeal > budget.ceiling {
				t.Fatalf("sweep allocates %d bytes/deal, over the %d ceiling; "+
					"run go test -run TestAllocationBudgetPerDeal -memprofile mem.out . to find the regression",
					perDeal, budget.ceiling)
			}
		})
	}
}
