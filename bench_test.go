// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family per table/figure:
//
//	BenchmarkFig4*          Figure 4 (gas-cost table) and its sweeps
//	BenchmarkFig7*          Figure 7 (delay table) in Δ units
//	BenchmarkPoWAttack      §6.2 PoW fake-proof attack probabilities
//	BenchmarkProofAblation  §6.2 certificate vs block-subsequence proofs
//	BenchmarkSwapBaseline   §8 deal protocol vs HTLC swap
//
// Two more families measure what the benchmark module (bench/, declared
// in BENCHMARK.json) does not: worker scaling, because it runs one
// worker (BenchmarkFleetSweepParallelVsSerial, BenchmarkHarnessSweepPooled),
// and two substrate operations no probe of it covers
// (BenchmarkMicroWellFormedCheck, BenchmarkMicroGasMeter). Throughput,
// bytes per deal and every other per-layer cost are measured there.
//
// Custom metrics carry the reproduced quantities: gas/op, sigver/op
// (signature verifications), delta-units (phase duration in Δ), and
// success-rate (attack probability). Wall-clock ns/op measures only the
// simulator, not the protocols, and is reported for completeness.
package xdeal_test

import (
	"fmt"
	"testing"

	"xdeal"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/gas"
	"xdeal/internal/harness"
	"xdeal/internal/party"
	"xdeal/internal/pow"
	"xdeal/internal/sim"
)

// benchGas runs a deal repeatedly and reports per-phase gas metrics.
func benchGas(b *testing.B, spec func() *deal.Spec, opts engine.Options) {
	b.Helper()
	var row harness.GasRow
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		var err error
		row, err = harness.RunGas(spec(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if !row.Committed {
			b.Fatal("benchmark deal did not commit")
		}
	}
	b.ReportMetric(float64(row.EscrowWrites), "escrow-writes/op")
	b.ReportMetric(float64(row.TransferWrites), "transfer-writes/op")
	b.ReportMetric(float64(row.CommitSigVerifs), "commit-sigver/op")
	b.ReportMetric(float64(row.CommitGas), "commit-gas/op")
	b.ReportMetric(float64(row.TotalGas), "total-gas/op")
}

// Figure 4, timelock row: commit cost grows ~n² per contract on rings.
func BenchmarkFig4TimelockCommit(b *testing.B) {
	for _, n := range []int{3, 4, 6, 8, 10} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGas(b, func() *deal.Spec {
				return deal.RingSpec(n, sim.Time(3000+500*n), 1000)
			}, engine.Options{Protocol: party.ProtoTimelock})
		})
	}
}

// Figure 4, CBC row: commit cost is m(2f+1) signature verifications,
// independent of n.
func BenchmarkFig4CBCCommit(b *testing.B) {
	for _, f := range []int{1, 2, 4, 7} {
		f := f
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			benchGas(b, func() *deal.Spec {
				return deal.RingSpec(4, 5000, 1000)
			}, engine.Options{Protocol: party.ProtoCBC, F: f})
		})
	}
}

// Figure 4, escrow and transfer columns: O(m) and O(t) storage writes,
// identical for both protocols (dense deals vary m at fixed n).
func BenchmarkFig4EscrowTransfer(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			benchGas(b, func() *deal.Spec {
				return deal.DenseSpec(4, m, 5000, 1000)
			}, engine.Options{Protocol: party.ProtoTimelock})
		})
	}
}

// benchTime runs the Figure 7 timing experiment and reports Δ-unit
// durations.
func benchTime(b *testing.B, n int, mode string, mk func(seed uint64) (harness.TimeRow, error)) {
	b.Helper()
	var row harness.TimeRow
	for i := 0; i < b.N; i++ {
		var err error
		row, err = mk(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !row.Committed {
			b.Fatalf("%s n=%d did not commit", mode, n)
		}
	}
	b.ReportMetric(row.Escrow, "escrow-delta")
	b.ReportMetric(row.Transfer, "transfer-delta")
	b.ReportMetric(row.Commit, "commit-delta")
	b.ReportMetric(row.Total, "total-delta")
}

// Figure 7: timelock commit with incentive-minimal forwarded voting is
// O(n)Δ.
func BenchmarkFig7TimelockForwarded(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTime(b, n, "forwarded", func(seed uint64) (harness.TimeRow, error) {
				return harness.RunTime(deal.RingSpec(n, 40000, 1000),
					engine.Options{Seed: seed, Protocol: party.ProtoTimelock}, "forwarded")
			})
		})
	}
}

// Figure 7: altruistic direct voting collapses the commit phase to ~Δ.
func BenchmarkFig7TimelockAltruistic(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTime(b, n, "altruistic", func(seed uint64) (harness.TimeRow, error) {
				spec := deal.RingSpec(n, 40000, 1000)
				behaviors := make(map[xdeal.Addr]party.Behavior)
				for _, p := range spec.Parties {
					behaviors[p] = party.Behavior{Altruistic: true}
				}
				return harness.RunTime(spec, engine.Options{
					Seed: seed, Protocol: party.ProtoTimelock, Behaviors: behaviors,
				}, "altruistic")
			})
		})
	}
}

// Figure 7: CBC commit decides in O(1)Δ regardless of n.
func BenchmarkFig7CBC(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTime(b, n, "cbc", func(seed uint64) (harness.TimeRow, error) {
				return harness.RunTime(deal.RingSpec(n, 40000, 1000),
					engine.Options{Seed: seed, Protocol: party.ProtoCBC, F: 1, Patience: 200000}, "cbc")
			})
		})
	}
}

// §6.2: fake proof-of-abort attack success rate vs hash power and
// confirmation depth.
func BenchmarkPoWAttack(b *testing.B) {
	for _, alpha := range []float64{0.1, 0.3, 0.45} {
		for _, k := range []int{0, 4, 8} {
			alpha, k := alpha, k
			b.Run(fmt.Sprintf("alpha=%.2f/k=%d", alpha, k), func(b *testing.B) {
				var p float64
				for i := 0; i < b.N; i++ {
					p = pow.SuccessProbability(uint64(i+1), pow.RaceParams{
						Alpha: alpha, VoteBlocks: 3, Confirmations: k,
					}, 2000)
				}
				b.ReportMetric(p, "success-rate")
			})
		}
	}
}

// §6.2 ablation: status-certificate proofs vs block-subsequence proofs.
func BenchmarkProofAblation(b *testing.B) {
	for _, f := range []int{1, 2, 4} {
		f := f
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			var row harness.AblationRow
			for i := 0; i < b.N; i++ {
				var err error
				row, err = harness.ProofAblation(f, 0, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.CertSigVerifs), "cert-sigver/op")
			b.ReportMetric(float64(row.BlockSigVerifs), "block-sigver/op")
		})
	}
}

// §8 baseline: the same circular swap settled as a deal vs with HTLCs.
func BenchmarkSwapBaseline(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var row harness.SwapComparisonRow
			for i := 0; i < b.N; i++ {
				var err error
				row, err = harness.RunSwapComparison(n, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.DealGas), "deal-gas/op")
			b.ReportMetric(float64(row.HTLCGas), "htlc-gas/op")
			b.ReportMetric(float64(row.DealSigVerifs), "deal-sigver/op")
		})
	}
}

// Fleet benchmarks: the same randomized 64-deal population swept
// serially (workers=1, the old harness-loop regime) and across growing
// worker pools. Deal worlds are independent single-threaded
// simulations, so throughput scales with cores until the pool exceeds
// them; deals/s is the headline metric, and the report is
// byte-identical at every worker count.
func BenchmarkFleetSweepParallelVsSerial(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const deals = 64
			for i := 0; i < b.N; i++ {
				rep, err := xdeal.Sweep(xdeal.SweepOptions{
					Deals:   deals,
					Workers: workers,
					Gen: xdeal.GenOptions{
						Seed: 7, Protocol: "mixed",
						AdversaryRate: 0.3, DoSRate: 0.15,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Clean() {
					b.Fatalf("population not clean: %v", rep.Violations)
				}
			}
			b.ReportMetric(float64(deals*b.N)/b.Elapsed().Seconds(), "deals/s")
		})
	}
}

// The harness experiment sweeps on the same pool: serial (Workers=1)
// vs one worker per CPU (Workers=0), over the Figure 4 commit-gas
// n-sweep.
func BenchmarkHarnessSweepPooled(b *testing.B) {
	ns := []int{3, 4, 6, 8, 10}
	for _, workers := range []int{1, 0} {
		workers := workers
		name := "serial"
		if workers == 0 {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			prev := harness.Workers
			harness.Workers = workers
			defer func() { harness.Workers = prev }()
			for i := 0; i < b.N; i++ {
				if _, _, err := harness.SweepCommitGasByN(ns, 2, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Substrate micro-benchmarks.

func BenchmarkMicroWellFormedCheck(b *testing.B) {
	spec := deal.RingSpec(50, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !spec.WellFormed() {
			b.Fatal("ring not strongly connected")
		}
	}
}

func BenchmarkMicroGasMeter(b *testing.B) {
	m := gas.NewMeter(gas.DefaultSchedule())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Charge("bench", gas.OpWrite, 1)
	}
}

// Figure 7's transfer dichotomy: tΔ for sequential pass-through chains
// vs Δ for independent transfers.
func BenchmarkFig7TransferDepth(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rows []harness.TransferDepthRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = harness.SweepTransferDepth([]int{n}, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].RingTransfer, "ring-transfer-delta")
			b.ReportMetric(rows[0].PathTransfer, "path-transfer-delta")
		})
	}
}
