// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family per table/figure:
//
//	BenchmarkFig4*          Figure 4 (gas-cost table) and its sweeps
//	BenchmarkFig7*          Figure 7 (delay table) in Δ units
//	BenchmarkPoWAttack      §6.2 PoW fake-proof attack probabilities
//	BenchmarkProofAblation  §6.2 certificate vs block-subsequence proofs
//	BenchmarkSwapBaseline   §8 deal protocol vs HTLC swap
//	BenchmarkMicro*         substrate micro-benchmarks
//
// Custom metrics carry the reproduced quantities: gas/op, sigver/op
// (signature verifications), delta-units (phase duration in Δ), and
// success-rate (attack probability). Wall-clock ns/op measures only the
// simulator, not the protocols, and is reported for completeness.
package xdeal_test

import (
	"crypto/ed25519"
	"fmt"
	"testing"

	"xdeal"
	"xdeal/internal/bft"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/feemarket"
	"xdeal/internal/fleet"
	"xdeal/internal/gas"
	"xdeal/internal/harness"
	"xdeal/internal/party"
	"xdeal/internal/pow"
	"xdeal/internal/sig"
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

// Arena benchmarks: throughput of shared-world populations as the
// number of shared chains varies. Fewer chains concentrate the same
// deal traffic onto fewer mempools with capped blocks, so deals/s and
// per-deal latency both degrade — the contention the arena exists to
// measure. Baselines are off: this benchmark times the shared world
// itself, not the inflation-metric replays.
func BenchmarkArenaThroughput(b *testing.B) {
	for _, chains := range []int{1, 2, 4, 8} {
		chains := chains
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			const deals = 48
			var decisionP99 float64
			for i := 0; i < b.N; i++ {
				rep, err := xdeal.Sweep(xdeal.SweepOptions{
					Deals:   deals,
					Workers: 4,
					Gen: xdeal.GenOptions{
						Seed: 7, Protocol: "timelock", AdversaryRate: 0.3,
					},
					Arena: &xdeal.ArenaOptions{DealsPerArena: 24, Chains: chains},
				})
				if err != nil {
					b.Fatal(err)
				}
				decisionP99 = rep.DeltaTime.P99
			}
			b.ReportMetric(float64(deals*b.N)/b.Elapsed().Seconds(), "deals/s")
			b.ReportMetric(decisionP99, "p99-decision-delta")
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

// Fee-market benchmarks: raw block-builder throughput, FIFO vs
// tip-ordered. The tip-ordered builder sorts the mempool at every block
// (O(n log n) against FIFO's O(n) slice split), so this measures what
// the ordering game costs the simulator per transaction.
func BenchmarkBlockBuilderFIFOvsTipOrdered(b *testing.B) {
	for _, mode := range []struct {
		name string
		fees *feemarket.Config
	}{{"fifo", nil}, {"tip-ordered", &feemarket.Config{Initial: 100}}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			const txs = 2048
			rng := sim.NewRNG(7)
			tips := make([]uint64, txs)
			for i := range tips {
				tips[i] = uint64(rng.Intn(32))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched := sim.NewScheduler()
				c := chain.New(chain.Config{
					ID:            "bench",
					BlockInterval: 10,
					Delays:        chain.SyncPolicy{Min: 1, Max: 1},
					Schedule:      gas.DefaultSchedule(),
					MaxBlockTxs:   64,
					FeeMarket:     mode.fees,
				}, sched, sim.NewRNG(1))
				c.MustDeploy("sink", benchSink{})
				for j := 0; j < txs; j++ {
					c.Submit(&chain.Tx{Sender: "a", Contract: "sink", Method: "x", Label: "t", Tip: tips[j]})
				}
				sched.Run()
				if len(c.Receipts()) != txs {
					b.Fatalf("executed %d of %d", len(c.Receipts()), txs)
				}
			}
			b.ReportMetric(float64(txs*b.N)/b.Elapsed().Seconds(), "txs/s")
		})
	}
}

// benchSink is a no-op contract for builder throughput benchmarks.
type benchSink struct{}

func (benchSink) Invoke(*chain.Env, string, any) (any, error) { return nil, nil }

// Fee-market sweep benchmark: ordering-game arenas end to end, the
// fee-bid win rate reported alongside throughput.
func BenchmarkFeeMarketArenaSweep(b *testing.B) {
	const deals = 48
	var og *fleet.OrderingGames
	for i := 0; i < b.N; i++ {
		rep, err := xdeal.Sweep(xdeal.SweepOptions{
			Deals:   deals,
			Workers: 4,
			Gen: xdeal.GenOptions{
				Seed: 7, Protocol: "timelock", AdversaryRate: 0.3,
				Fees: &xdeal.FeeOptions{BaseFee: 100, TipBudget: 400},
			},
			Arena: &xdeal.ArenaOptions{DealsPerArena: 24, Chains: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		og = rep.OrderingGames
	}
	b.ReportMetric(float64(deals*b.N)/b.Elapsed().Seconds(), "deals/s")
	b.ReportMetric(og.FeeBidWinRate(), "fee-bid-win-rate")
	b.ReportMetric(og.FeePerCommit, "fee-per-commit")
}

// Substrate micro-benchmarks.

func BenchmarkMicroPathSigVerify(b *testing.B) {
	for _, hops := range []int{1, 4, 8} {
		hops := hops
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			keys := make(map[string]sig.KeyPair)
			keyring := make(map[string]ed25519.PublicKey)
			names := make([]string, hops)
			for i := range names {
				names[i] = fmt.Sprintf("p%d", i)
				kp := sig.GenerateKeyPair(names[i])
				keys[names[i]] = kp
				keyring[names[i]] = kp.Public
			}
			vote := sig.NewVote("D", names[0], keys[names[0]])
			for i := 1; i < hops; i++ {
				vote = vote.Forward(names[i], keys[names[i]])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := vote.Verify(keyring, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicroCertificateVerify(b *testing.B) {
	for _, f := range []int{1, 4, 10} {
		f := f
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			committee, signers := bft.NewCommittee("bench", 0, f)
			cert := bft.MakeCertificate([]byte("statement"), 0, signers[:committee.Quorum()])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cert.Verify(committee, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicroSchedulerThroughput(b *testing.B) {
	s := sim.NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(sim.Time(i), func() {})
		s.Step()
	}
}

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

// Scheduler backend duel: the PR-10 time-wheel vs the legacy binary
// heap on the workloads that diverge asymptotically. "dense" is the
// near-future steady state every chain world lives in (delays well
// under one wheel rotation); "churn" schedules and immediately cancels
// — O(1) unlink on the wheel vs O(log n) heap fixup; "farspread"
// forces overflow-heap migration every rotation.
func BenchmarkMicroSchedulerWheelVsHeap(b *testing.B) {
	backends := []struct {
		name string
		mk   func() *sim.Scheduler
	}{
		{"wheel", sim.NewScheduler},
		{"heap", sim.NewHeapScheduler},
	}
	for _, be := range backends {
		be := be
		b.Run(be.name+"/dense", func(b *testing.B) {
			s := be.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(sim.Duration(1+i%64), func() {})
				s.Step()
			}
		})
		b.Run(be.name+"/churn", func(b *testing.B) {
			s := be.mk()
			// A standing population keeps the heap's cancel cost honest.
			for i := 0; i < 4096; i++ {
				s.After(sim.Duration(10+i), func() {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cancel := s.At(s.Now()+sim.Time(5+i%128), func() {})
				cancel()
			}
		})
		b.Run(be.name+"/farspread", func(b *testing.B) {
			s := be.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.After(sim.Duration(1+i%8192), func() {})
				s.Step()
			}
		})
	}
}

// Allocation profile of the block-production hot path, measured through
// a whole isolated sweep so mempool recycling and receipt slabs show
// up. bytes/deal is the number the CI allocation-budget gate holds a
// ceiling over.
func BenchmarkSweepAllocs(b *testing.B) {
	const deals = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := xdeal.Sweep(xdeal.SweepOptions{
			Deals:   deals,
			Workers: 1,
			Gen: xdeal.GenOptions{
				Seed: 7, Protocol: "mixed",
				AdversaryRate: 0.3, DoSRate: 0.15,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
	}
}
