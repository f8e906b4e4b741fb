package fleet

import (
	"bytes"
	"fmt"
	"testing"
)

// feeSweepOpts is the canonical fee-market population used across these
// tests, in isolated or arena mode.
func feeSweepOpts(deals, workers int, arena bool) Options {
	opts := Options{
		Deals:   deals,
		Workers: workers,
		Gen: GenOptions{
			Seed:          7,
			Protocol:      "mixed",
			AdversaryRate: 0.35,
			Fees:          &FeeOptions{BaseFee: 100, TipBudget: 400},
		},
	}
	if arena {
		opts.Arena = &ArenaOptions{DealsPerArena: 20, Chains: 3}
	}
	return opts
}

func renderedFeeReport(t *testing.T, opts Options) string {
	t.Helper()
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFleetFeeMarketDeterministicAcrossWorkerCounts: fee-market sweeps
// keep the fleet's reproducibility contract — the report (including the
// ordering-games block, fee ledgers, and tip-decile table) is
// byte-identical at every worker count, in both isolated and arena
// mode. Run under -race this also exercises the fee plumbing for data
// races.
func TestFleetFeeMarketDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, mode := range []struct {
		name  string
		arena bool
	}{{"isolated", false}, {"arena", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			deals := 60
			if testing.Short() {
				deals = 20 // equality check only: scale the sweep, keep the pool racing
			}
			want := renderedFeeReport(t, feeSweepOpts(deals, 1, mode.arena))
			for _, workers := range []int{4, 16} {
				if got := renderedFeeReport(t, feeSweepOpts(deals, workers, mode.arena)); got != want {
					t.Fatalf("%s fee-market report at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						mode.name, workers, want, workers, got)
				}
			}
		})
	}
}

// TestFleetFeeMarketOrderingGamesBlock: the ordering-games block
// appears in both isolated and arena fee-market sweeps — with live fee
// ledgers and a tip-decile table — and never appears without
// -feemarket.
func TestFleetFeeMarketOrderingGamesBlock(t *testing.T) {
	for _, mode := range []struct {
		name  string
		arena bool
	}{{"isolated", false}, {"arena", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			rep, err := Sweep(feeSweepOpts(60, 4, mode.arena))
			if err != nil {
				t.Fatal(err)
			}
			og := rep.OrderingGames
			if og == nil {
				t.Fatalf("%s fee-market sweep has no ordering-games block", mode.name)
			}
			if og.BaseFee != 100 || og.TipBudget != 400 {
				t.Fatalf("config echo wrong: %+v", og)
			}
			if og.FeesBurned == 0 || og.FeesTipped == 0 {
				t.Fatalf("fee ledger dead: %+v", og)
			}
			if og.CommittedDeals == 0 || og.FeePerCommit <= 0 {
				t.Fatalf("no fee-per-commit accounting: %+v", og)
			}
			if len(og.InclusionDelay) == 0 {
				t.Fatal("no tip-decile inclusion delays")
			}
			total := 0
			for i, td := range og.InclusionDelay {
				total += td.Count
				if td.Count <= 0 || td.MeanDelay < 0 {
					t.Fatalf("degenerate decile %+v", td)
				}
				if i > 0 && td.MaxTip <= og.InclusionDelay[i-1].MaxTip {
					t.Fatalf("deciles not ascending by tip: %+v", og.InclusionDelay)
				}
			}
			if total == 0 {
				t.Fatal("tip deciles cover no transactions")
			}
			if og.FeeBidAttempts == 0 {
				t.Fatal("no fee-bid races at 35% adversary rate")
			}
			if !rep.Clean() {
				var buf bytes.Buffer
				rep.Fprint(&buf)
				t.Fatalf("fee-market population not clean:\n%s", buf.String())
			}
		})
	}
	// No fee options: no ordering-games block.
	plain, err := Sweep(Options{Deals: 10, Workers: 2, Gen: GenOptions{Seed: 7, AdversaryRate: 0.35}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.OrderingGames != nil {
		t.Fatal("FIFO sweep grew an ordering-games block")
	}
}

// TestFleetFeeMarketArenaReplayDeterministic: arena replays stay
// byte-identical with the fee market enabled — the flagged deal
// regenerates inside the identical fee environment, down to its fee
// attribution.
func TestFleetFeeMarketArenaReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay indices are baked for the full 60-deal population")
	}
	opts := feeSweepOpts(60, 4, true)
	for _, idx := range []int{0, 19, 20, 42, 59} {
		a, err := ReplayArenaDeal(opts, idx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReplayArenaDeal(opts, idx)
		if err != nil {
			t.Fatal(err)
		}
		fa := fmt.Sprintf("%d %d %s %v fees=%d races=%d %s",
			a.Seed, a.Adversaries, a.Spec.ID, a.Result.Phases.DecisionEnd, a.Result.DealFees, a.FrontRuns, a.Result.Summary())
		fb := fmt.Sprintf("%d %d %s %v fees=%d races=%d %s",
			b.Seed, b.Adversaries, b.Spec.ID, b.Result.Phases.DecisionEnd, b.Result.DealFees, b.FrontRuns, b.Result.Summary())
		if fa != fb {
			t.Fatalf("fee-market replay of arena deal %d not deterministic:\n%s\n---\n%s", idx, fa, fb)
		}
	}
}

// TestFleetFeeBidWinRateExceedsPlainRacer lifts the arena-level
// acceptance claim to the sweep surface users actually run: on the same
// seeds, enabling -feemarket turns the front-runner population into fee
// bidders whose aggregate win rate strictly exceeds the plain gossip
// racers' under FIFO.
func TestFleetFeeBidWinRateExceedsPlainRacer(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical win-rate comparison needs the full population")
	}
	fifo := feeSweepOpts(100, 4, true)
	fifo.Gen.Fees = nil
	plainRep, err := Sweep(fifo)
	if err != nil {
		t.Fatal(err)
	}
	feeRep, err := Sweep(feeSweepOpts(100, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	inf := plainRep.Interference
	og := feeRep.OrderingGames
	if inf == nil || og == nil {
		t.Fatal("missing report blocks")
	}
	if inf.FrontRunAttempts == 0 || og.FeeBidAttempts == 0 {
		t.Fatalf("degenerate race counts: plain %d, bids %d", inf.FrontRunAttempts, og.FeeBidAttempts)
	}
	plainRate := float64(inf.FrontRunWins) / float64(inf.FrontRunAttempts)
	bidRate := og.FeeBidWinRate()
	if bidRate <= plainRate {
		t.Fatalf("fee-bid win rate %.3f (%d/%d) does not exceed plain %.3f (%d/%d)",
			bidRate, og.FeeBidWins, og.FeeBidAttempts,
			plainRate, inf.FrontRunWins, inf.FrontRunAttempts)
	}
}
