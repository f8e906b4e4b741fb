package xdeal_test

import (
	"testing"

	"xdeal"
)

// maxBytesPerDeal is the allocation-budget ceiling the CI gate holds
// over the block-production hot path, measured through a whole isolated
// sweep (generation + worlds + aggregation). The sweep below measures
// 140,987 bytes/deal (go1.24, linux/amd64, the same on repeated runs;
// 150,371 before the gas meter went flat, After stopped returning a
// Cancel and mempool gossip was filtered; 264,246 before event delivery
// was filtered, deal plans were computed once and escrow reads stopped
// copying). The rule: ceiling = last measurement + 15 %, rounded up to
// the next thousand, and a PR that lowers the measurement ratchets the
// ceiling down with it.
const maxBytesPerDeal = 163_000

// TestAllocationBudgetPerDeal is the CI allocation gate: it meters a
// fixed-seed sweep with the benchmark machinery and fails if bytes/deal
// blows the ceiling. Skipped under -short: the race detector's shadow
// allocations would dominate the measurement in the -race -short lane.
func TestAllocationBudgetPerDeal(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race instrumentation")
	}
	const deals = 64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xdeal.Sweep(xdeal.SweepOptions{
				Deals:   deals,
				Workers: 1,
				Gen: xdeal.GenOptions{
					Seed: 7, Protocol: "mixed",
					AdversaryRate: 0.3, DoSRate: 0.15,
				},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	perDeal := res.AllocedBytesPerOp() / deals
	t.Logf("allocation budget: %d bytes/deal (ceiling %d)", perDeal, maxBytesPerDeal)
	if perDeal > maxBytesPerDeal {
		t.Fatalf("block-production hot path allocates %d bytes/deal, over the %d ceiling; "+
			"run BenchmarkSweepAllocs with -memprofile to find the regression",
			perDeal, maxBytesPerDeal)
	}
}
