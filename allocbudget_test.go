package xdeal_test

import (
	"testing"

	"xdeal"
)

// allocBudgets are the bytes/deal and mallocs/deal ceilings the CI gate
// holds, each measured through a whole fixed-seed sweep (generation +
// worlds + evaluation + aggregation). The rule: ceiling = last
// measurement + 15 %, rounded up to the next thousand bytes or the next
// ten mallocs, and a PR that lowers a measurement ratchets its ceiling
// down with it. Measurements are go1.24, linux/amd64, and repeat to
// within a few bytes and a fraction of a malloc.
var allocBudgets = []struct {
	name          string
	deals         int
	ceiling       int64   // bytes per deal
	mallocCeiling float64 // mallocs per deal
	opts          xdeal.SweepOptions
}{
	// Isolated worlds: 35,655 bytes and 299.2 mallocs per deal (39,443
	// bytes and 367.4 mallocs before the CBC's block digests and start
	// hashes were encoded on the stack, committees were derived once per
	// process, block proofs shared their deal's span, a party kept its CBC
	// bookkeeping across resets and escrow rejections stopped formatting;
	// 40,849 bytes and 410.6 mallocs before an accepted vote's event shared the
	// path its transaction carried instead of a clone, rejected votes
	// stopped formatting their errors and the spec builders took their
	// names from a table; 41,223 bytes and 419.2 mallocs before per-deal
	// timers were scheduled with After and a world sorted its chain ids
	// once; 78,231 bytes and 761.5 mallocs before each sweep worker reset
	// one substrate between its deals instead of building a world per
	// deal; 79,649 bytes
	// before the chain scheduled its arrivals, blocks, receipts and fan-out
	// deliveries without a closure each and ran top-level transactions in
	// one re-aimed Env; 84,058 before the refund floor went back to N,
	// dropping the per-deal relay-depth derivation, and vote messages
	// hashed without allocating; 88,167 before deal.NewPlan derived each
	// deal in one pass and the scheduler wheel shrank to 256 one-pointer
	// slots, where later perf work had left the 106,610 measured here;
	// 109,543 before DealGas stopped merging a second meter and attribution
	// went to compact intervals read off a receipt index; 119,617 before
	// notify deliveries were grouped per delay, executed After events
	// reused and the always-on attribution stopped building the span DAG;
	// 140,989 before the gas meter went flat, After stopped returning a
	// Cancel and mempool gossip was filtered; 150,371 before that).
	{"isolated", 64, 42_000, 350, xdeal.SweepOptions{Gen: xdeal.GenOptions{
		Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, DoSRate: 0.15,
	}}},
	// Shared arenas of 50 deals on 2 chains with fees, bundle auctions and
	// hedging: 77,922 bytes and 843.8 mallocs per deal (80,325 bytes and
	// 887.5 mallocs before the CBC work above; 81,823 bytes and
	// 938.2 mallocs before the shared votes, unformatted rejections and
	// tabled names above; 81,843 bytes and 945.5 mallocs before the After
	// timers and once-sorted chain ids above; 84,372 bytes and
	// 976.4 mallocs before parties kept their vote sets as bitsets and
	// built their chain-event handlers once, since arenas never reset their
	// substrate; 86,545 bytes when the bytes ceiling was set; 108,401
	// before the closure-free chain scheduling above, whose recycled
	// delivery nodes also stopped allocating a function slice per grouped
	// delivery; 112,771 before the N refund floor and the allocation-free
	// vote hashing above; 115,250 before the deal plan and the wheel above,
	// where later perf work had left the 130,889 measured here; 182,583
	// before each deal's meter became a layer over one chain-gas union per
	// chain set and its receipts came from the index; 323,133 before the
	// notify grouping, the reused After events and the span-free
	// attribution).
	{"arena", 200, 90_000, 980, xdeal.SweepOptions{
		Gen: xdeal.GenOptions{Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, Fees: &xdeal.FeeOptions{}},
		Arena: &xdeal.ArenaOptions{
			DealsPerArena: 50, Chains: 2, Bundles: true, Hedge: true,
		},
	}},
}

// TestAllocationBudgetPerDeal is the CI allocation gate: it meters each
// fixed-seed sweep with the benchmark machinery and fails if bytes/deal
// or mallocs/deal blows its ceiling. Skipped under -short: the race
// detector's shadow allocations would dominate the measurement in the
// -race -short lane.
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
			mallocs := float64(res.AllocsPerOp()) / float64(budget.deals)
			t.Logf("allocation budget: %d bytes/deal (ceiling %d), %.1f mallocs/deal (ceiling %.0f)",
				perDeal, budget.ceiling, mallocs, budget.mallocCeiling)
			if perDeal > budget.ceiling {
				t.Errorf("sweep allocates %d bytes/deal, over the %d ceiling; "+
					"run go test -run TestAllocationBudgetPerDeal -memprofile mem.out . to find the regression",
					perDeal, budget.ceiling)
			}
			if mallocs > budget.mallocCeiling {
				t.Errorf("sweep makes %.1f mallocs/deal, over the %.0f ceiling; "+
					"run go test -run TestAllocationBudgetPerDeal -memprofile mem.out . and read alloc_objects to find the regression",
					mallocs, budget.mallocCeiling)
			}
		})
	}
}
