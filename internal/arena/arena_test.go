package arena

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/party"
)

func testPop(t *testing.T, deals int, advRate float64) []DealSetup {
	t.Helper()
	pop, err := NewPopulation(7, PopOptions{
		Deals: deals, Chains: 4, AdversaryRate: advRate,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// fingerprint renders everything an arena result contains, so equality
// checks cover outcomes, metrics, and per-deal details.
func fingerprint(res *Result) string {
	s := fmt.Sprintf("interference=%+v\n", res.Interference)
	for _, out := range res.Outcomes {
		s += fmt.Sprintf("deal %d seed %d %s adv=%d sore=%d races=%d decided=%d\n%s",
			out.Index, out.Seed, out.Spec.ID, out.Adversaries, out.SoreLosers,
			out.FrontRuns, out.Result.Phases.DecisionEnd, out.Result.Summary())
	}
	return s
}

// TestArenaDeterministicAcrossRuns: the same (options, population)
// yields a bit-identical result every time — the arena only ever runs
// single-threaded, so this is the substrate of the fleet-level
// any-worker-count determinism guarantee.
func TestArenaDeterministicAcrossRuns(t *testing.T) {
	pop := testPop(t, 30, 0.3)
	a, err := Run(Options{Seed: 7, Baselines: true}, pop)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seed: 7, Baselines: true}, testPop(t, 30, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprint(a), fingerprint(b)
	if fa != fb {
		t.Fatalf("same seed, different arena results:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", fa, fb)
	}
	other, err := Run(Options{Seed: 8, Baselines: true}, pop)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(other) == fa {
		t.Fatal("different arena seeds produced identical results")
	}
}

// TestArenaCompliantPopulationCommits: with no adversaries, every
// sequenceable deal must still commit despite sharing mempools and
// capped blocks with dozens of neighbors — contention may slow deals
// down but must not break strong liveness (the generator budgets T0
// slack for exactly this).
func TestArenaCompliantPopulationCommits(t *testing.T) {
	pop := testPop(t, 40, 0)
	res, err := Run(Options{Seed: 3}, pop)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outcomes {
		r := out.Result
		if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
			t.Fatalf("deal %d (%s): violations under contention:\n%s", out.Index, out.Spec.ID, r.Summary())
		}
		if out.Sequenceable && !r.AllCommitted {
			t.Fatalf("deal %d (%s): compliant sequenceable deal did not commit:\n%s",
				out.Index, out.Spec.ID, r.Summary())
		}
	}
}

// TestArenaAdversarialPopulationSafe: adaptive adversaries (sore
// losers, front-runners, griefers) may abort deals and inflate
// latencies, but compliant counterparties never lose assets (Property
// 1) and never stay locked (Property 2).
func TestArenaAdversarialPopulationSafe(t *testing.T) {
	pop := testPop(t, 40, 0.4)
	res, err := Run(Options{Seed: 9}, pop)
	if err != nil {
		t.Fatal(err)
	}
	adversarial := 0
	for _, out := range res.Outcomes {
		r := out.Result
		if len(r.SafetyViolations) > 0 {
			t.Fatalf("deal %d (%s): safety violation:\n%s", out.Index, out.Spec.ID, r.Summary())
		}
		if len(r.LivenessViolations) > 0 {
			t.Fatalf("deal %d (%s): liveness violation:\n%s", out.Index, out.Spec.ID, r.Summary())
		}
		if out.Adversaries > 0 {
			adversarial++
		}
	}
	if adversarial == 0 {
		t.Fatal("population degenerate: no adversarial deals at 40% rate")
	}
}

// feeFingerprint extends the arena fingerprint with the fee summary.
func feeFingerprint(res *Result) string {
	s := fingerprint(res)
	if res.Fees != nil {
		s += fmt.Sprintf("fees burned=%d tipped=%d samples=%d\n",
			res.Fees.Burned, res.Fees.Tipped, len(res.Fees.Samples))
		for _, smp := range res.Fees.Samples {
			s += fmt.Sprintf("%d/%d;", smp.Tip, smp.Queued)
		}
	}
	return s
}

// TestFeeMarketArenaDeterministicAndAccounted: a fee-market arena stays
// a pure function of its options — bit-identical fee ledgers and
// tip/queue samples across runs — and the per-deal fee attribution sums
// to no more than the world totals (setup transactions burn the rest).
func TestFeeMarketArenaDeterministicAndAccounted(t *testing.T) {
	mk := func() []DealSetup {
		pop, err := NewPopulation(7, PopOptions{
			Deals: 30, Chains: 4, AdversaryRate: 0.3,
		}, Options{FeeMarket: true, TipBudget: 400})
		if err != nil {
			t.Fatal(err)
		}
		return pop
	}
	opts := Options{Seed: 7, FeeMarket: true}
	a, err := Run(opts, mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts, mk())
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := feeFingerprint(a), feeFingerprint(b)
	if fa != fb {
		t.Fatal("fee-market arena not deterministic across runs")
	}
	if a.Fees == nil || a.Fees.Burned == 0 {
		t.Fatal("fee-market arena burned nothing")
	}
	if a.Fees.Tipped == 0 {
		t.Fatal("nobody tipped in a fee-market arena")
	}
	var dealFees uint64
	for _, out := range a.Outcomes {
		dealFees += out.Result.DealFees
	}
	if dealFees == 0 {
		t.Fatal("no fees attributed to any deal")
	}
	if total := a.Fees.Burned + a.Fees.Tipped; dealFees > total {
		t.Fatalf("per-deal fees %d exceed world total %d", dealFees, total)
	}
}

// TestFeeBidderBeatsPlainRacerOnSameSeeds is the headline ordering-game
// claim: the fee-bidding front-runner wins strictly more of its races
// than the plain gossip racer does on the same seeds. The populations
// are twins — the FeeMarket flag consumes no randomness, so the same
// parties race the same opportunities; the only difference is that the
// bidders outbid the transactions they race, and tip-ordered blocks
// honor the bid.
func TestFeeBidderBeatsPlainRacerOnSameSeeds(t *testing.T) {
	mk := func(fees bool) []DealSetup {
		pop, err := NewPopulation(7, PopOptions{
			Deals: 40, Chains: 3, AdversaryRate: 0.35,
		}, Options{FeeMarket: fees})
		if err != nil {
			t.Fatal(err)
		}
		return pop
	}
	fifo, err := Run(Options{Seed: 7}, mk(false))
	if err != nil {
		t.Fatal(err)
	}
	market, err := Run(Options{Seed: 7, FeeMarket: true}, mk(true))
	if err != nil {
		t.Fatal(err)
	}
	plain, bids := fifo.Interference, market.Interference
	if plain.FrontRunAttempts == 0 {
		t.Fatal("no plain races on this seed; pick another")
	}
	if bids.FeeBidAttempts == 0 {
		t.Fatal("no fee-bid races on this seed; the upgrade is dead")
	}
	if plain.FeeBidAttempts != 0 || bids.FrontRunAttempts != 0 {
		t.Fatalf("strategy accounting mixed: fifo=%+v market=%+v", plain, bids)
	}
	plainRate := float64(plain.FrontRunWins) / float64(plain.FrontRunAttempts)
	bidRate := float64(bids.FeeBidWins) / float64(bids.FeeBidAttempts)
	if bidRate <= plainRate {
		t.Fatalf("fee bidder win rate %.3f (%d/%d) does not exceed plain racer's %.3f (%d/%d)",
			bidRate, bids.FeeBidWins, bids.FeeBidAttempts,
			plainRate, plain.FrontRunWins, plain.FrontRunAttempts)
	}
}

// TestSoreLoserAbortNeverViolatesSafety is the regression test for the
// headline attack, under both protocols: a hair-trigger sore loser
// backs out of its deal on the first upward price tick, the deal fails
// to commit, and yet the compliant counterparties get every deposit
// back — no Property 1 (safety) and no Property 2 (liveness) violation.
func TestSoreLoserAbortNeverViolatesSafety(t *testing.T) {
	for _, protocol := range []string{"timelock", "cbc"} {
		t.Run(protocol, func(t *testing.T) {
			pop, err := NewPopulation(11, PopOptions{Deals: 8, Chains: 3, AdversaryRate: 0}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Plant one hair-trigger sore loser per deal: party 0 always
			// has an escrow obligation in every generated shape, so it
			// has something to regret.
			for k := range pop {
				victim := pop[k].Spec.Parties[0]
				pop[k].Behaviors = map[chain.Addr]party.Behavior{
					victim: {party.SoreLoser{Threshold: 0.0001}},
				}
				pop[k].Adversaries = 1
			}
			res, err := Run(Options{
				Seed: 5, Protocol: protocol, Volatility: 0.05, PriceTick: 25,
			}, pop)
			if err != nil {
				t.Fatal(err)
			}
			if res.Interference.SoreLoserTriggers == 0 {
				t.Fatal("no sore loser triggered despite hair-trigger thresholds")
			}
			aborted := 0
			for _, out := range res.Outcomes {
				r := out.Result
				if len(r.SafetyViolations) > 0 {
					t.Fatalf("deal %d: sore-loser abort violated safety:\n%s", out.Index, r.Summary())
				}
				if len(r.LivenessViolations) > 0 {
					t.Fatalf("deal %d: sore-loser abort locked a compliant deposit:\n%s", out.Index, r.Summary())
				}
				if out.SoreLosers > 0 && !r.AllCommitted {
					aborted++
					// The compliant counterparties must end the aborted
					// deal with exactly what they started with.
					if r.AllAborted {
						for _, p := range out.Spec.Parties {
							if !r.Compliant[p] {
								continue
							}
							for key, d := range r.FungibleDelta[p] {
								if d != 0 {
									t.Fatalf("deal %d: compliant %s lost %+d at %s in a sore-loser abort",
										out.Index, p, d, key)
								}
							}
						}
					}
				}
			}
			if aborted == 0 {
				t.Fatal("every sore-loser deal still committed; the trigger has no teeth")
			}
			if res.Interference.SoreLoserDeals != aborted {
				t.Fatalf("SoreLoserDeals = %d, counted %d aborted sore-loser deals",
					res.Interference.SoreLoserDeals, aborted)
			}
		})
	}
}

// TestOptionsWithDefaults: WithDefaults resolves every zero knob to its
// default and rejects every out-of-range one, and Run rejects what it
// rejects rather than running a world its options do not describe.
func TestOptionsWithDefaults(t *testing.T) {
	got, err := Options{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Protocol: "timelock", Volatility: 0.02, PriceTick: 100, MaxBlockTxs: 8,
		TipBudget: 400, BundleBudget: 400, HedgeCollateral: 1.0, PremiumVolWindow: 32,
	}
	if got != want {
		t.Fatalf("zero options resolved to %+v, want %+v", got, want)
	}
	for _, tc := range []struct {
		name string
		opts Options
		err  string
	}{
		{"unknown-protocol", Options{Protocol: "pow"}, `arena: unknown protocol "pow"`},
		{"negative-volatility", Options{Volatility: -0.1}, "arena: volatility -0.1 is negative or not finite"},
		{"nan-volatility", Options{Volatility: math.NaN()}, "arena: volatility NaN is negative or not finite"},
		{"infinite-volatility", Options{Volatility: math.Inf(1)}, "arena: volatility +Inf is negative or not finite"},
		{"negative-block-capacity", Options{MaxBlockTxs: -1}, "arena: negative block capacity -1"},
		{"negative-hedge-collateral", Options{Hedge: true, HedgeCollateral: -1}, "arena: hedge collateral -1 is negative or not finite"},
		{"nan-hedge-collateral", Options{Hedge: true, HedgeCollateral: math.NaN()}, "arena: hedge collateral NaN is negative or not finite"},
		{"infinite-hedge-collateral", Options{Hedge: true, HedgeCollateral: math.Inf(1)}, "arena: hedge collateral +Inf is negative or not finite"},
		{"negative-premium-window", Options{Hedge: true, PremiumVolWindow: -4}, "arena: negative premium volatility window -4"},
		{"bundles-without-fee-market", Options{Bundles: true}, "arena: bundles require the fee market"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.opts.WithDefaults(); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("WithDefaults error %v, want %q", err, tc.err)
			}
			if _, err := Run(tc.opts, testPop(t, 2, 0)); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Run error %v, want %q", err, tc.err)
			}
		})
	}
}
