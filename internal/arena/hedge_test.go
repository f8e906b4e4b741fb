package arena

import (
	"fmt"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/party"
)

// soreLoserPop builds a population with one hair-trigger sore loser per
// deal (party 0 always carries an escrow obligation in every generated
// shape). When hedged is set, every other party insures its deposits —
// the twin differs only in the cover, never in the attack.
func soreLoserPop(t *testing.T, deals int, hedged bool) []DealSetup {
	t.Helper()
	pop, err := NewPopulation(11, PopOptions{Deals: deals, Chains: 3, AdversaryRate: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range pop {
		victim := pop[k].Spec.Parties[0]
		pop[k].Behaviors = map[chain.Addr]party.Behavior{
			victim: {SoreLoserThreshold: 0.0001},
		}
		if hedged {
			for _, p := range pop[k].Spec.Parties {
				if p == victim {
					continue
				}
				pop[k].Behaviors[p] = party.Behavior{Hedged: true}
			}
		}
		pop[k].Adversaries = 1
	}
	return pop
}

// TestHedgedTwinAbsorbsSoreLoserLoss is the headline acceptance claim
// of the defense, under both protocols: on the same seeds where sore
// losers strand compliant deposits, the hedged twin's residual loss is
// strictly below the unhedged population's loss — the collateral
// payouts absorb the attack. This closes the paper's adversarial-
// commerce loop: PR 2 priced the attack, this PR prices the defense.
func TestHedgedTwinAbsorbsSoreLoserLoss(t *testing.T) {
	for _, protocol := range []string{"timelock", "cbc"} {
		t.Run(protocol, func(t *testing.T) {
			run := func(hedged bool) *Result {
				opts := Options{
					Seed: 5, Protocol: protocol, Volatility: 0.05, PriceTick: 25,
					FeeMarket: true, Hedge: hedged,
				}
				res, err := Run(opts, soreLoserPop(t, 8, hedged))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			bare, covered := run(false), run(true)
			if bare.Interference.SoreLoserLoss == 0 {
				t.Fatal("unhedged sore losers stranded nothing on this seed; the comparison is vacuous")
			}
			if bare.Interference.ResidualSoreLoserLoss != bare.Interference.SoreLoserLoss {
				t.Fatalf("unhedged residual %d differs from gross %d with no payouts possible",
					bare.Interference.ResidualSoreLoserLoss, bare.Interference.SoreLoserLoss)
			}
			ch := covered.Interference
			if ch.HedgeBinds == 0 || ch.PremiumsPaid == 0 {
				t.Fatal("hedged twin bound no cover")
			}
			if ch.PayoutsClaimed == 0 {
				t.Fatal("no payouts despite sore losers killing hedged deals")
			}
			if ch.ResidualSoreLoserLoss >= bare.Interference.SoreLoserLoss {
				t.Fatalf("hedged residual loss %d not strictly below the unhedged twin's %d (payouts %d)",
					ch.ResidualSoreLoserLoss, bare.Interference.SoreLoserLoss, ch.PayoutsClaimed)
			}
			// With 1× collateral, a settled victim is made whole: the
			// residual must also be strictly below the hedged run's own
			// gross loss.
			if ch.ResidualSoreLoserLoss >= ch.SoreLoserLoss {
				t.Fatalf("payouts absorbed nothing: residual %d of gross %d", ch.ResidualSoreLoserLoss, ch.SoreLoserLoss)
			}
			// And hedging must not break protocol properties.
			for _, out := range covered.Outcomes {
				r := out.Result
				if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
					t.Fatalf("deal %d: hedging broke properties:\n%s", out.Index, r.Summary())
				}
			}
		})
	}
}

// TestSoreLoserLossConservation: the attributed loss exactly equals the
// sum of the per-deal stranded compliant deposits over sore-loser-killed
// deals — no double-count, no leak — and the residual is exactly the
// per-deal loss minus payouts, floored at zero. Checked with and
// without hedging enabled.
func TestSoreLoserLossConservation(t *testing.T) {
	for _, hedged := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedged=%v", hedged), func(t *testing.T) {
			res, err := Run(Options{
				Seed: 5, Volatility: 0.05, PriceTick: 25, FeeMarket: true, Hedge: hedged,
			}, soreLoserPop(t, 10, hedged))
			if err != nil {
				t.Fatal(err)
			}
			var gross, residual uint64
			deals := 0
			for _, out := range res.Outcomes {
				if out.Result == nil {
					continue
				}
				if out.Result.AllCommitted && out.Stranded != 0 {
					t.Fatalf("deal %d: committed everywhere yet %d reported stranded", out.Index, out.Stranded)
				}
				if out.SoreLosers == 0 || out.Result.AllCommitted {
					continue
				}
				deals++
				gross += out.Stranded
				r := out.Stranded
				if out.Payouts >= r {
					r = 0
				} else {
					r -= out.Payouts
				}
				residual += r
			}
			inter := res.Interference
			if deals == 0 || gross == 0 {
				t.Fatal("no sore-loser kills on this seed; conservation is vacuous")
			}
			if inter.SoreLoserDeals != deals {
				t.Fatalf("SoreLoserDeals = %d, independently counted %d", inter.SoreLoserDeals, deals)
			}
			if inter.SoreLoserLoss != gross {
				t.Fatalf("SoreLoserLoss = %d, sum of stranded compliant deposits = %d", inter.SoreLoserLoss, gross)
			}
			if inter.ResidualSoreLoserLoss != residual {
				t.Fatalf("ResidualSoreLoserLoss = %d, per-deal reconstruction = %d", inter.ResidualSoreLoserLoss, residual)
			}
			if hedged {
				if inter.PayoutsClaimed == 0 {
					t.Fatal("hedged conservation run claimed no payouts")
				}
			} else if inter.PremiumsPaid != 0 || inter.PayoutsClaimed != 0 || inter.HedgeBinds != 0 {
				t.Fatalf("unhedged run recorded hedge flows: %+v", inter)
			}
		})
	}
}

// hedgeFingerprint extends the arena fingerprint with every hedge
// observation, so the determinism check covers the new subsystem.
func hedgeFingerprint(res *Result) string {
	s := feeFingerprint(res)
	s += fmt.Sprintf("hedge binds=%d settles=%d premiums=%d refunds=%d payouts=%d residual=%d\n",
		res.Interference.HedgeBinds, res.Interference.HedgeSettles,
		res.Interference.PremiumsPaid, res.Interference.PremiumsRefunded,
		res.Interference.PayoutsClaimed, res.Interference.ResidualSoreLoserLoss)
	for _, h := range res.Interference.HedgeSamples {
		s += fmt.Sprintf("%d/%d/%d;", h.VolBps, h.Premium, h.Collateral)
	}
	for _, out := range res.Outcomes {
		s += fmt.Sprintf("deal %d stranded=%d premiums=%d payouts=%d\n",
			out.Index, out.Stranded, out.Premiums, out.Payouts)
	}
	return s
}

// TestHedgedArenaDeterministic: a hedged fee-market arena remains a
// pure function of its options, bit for bit, hedge ledgers included.
func TestHedgedArenaDeterministic(t *testing.T) {
	opts := Options{Seed: 7, FeeMarket: true, Hedge: true, Volatility: 0.05, PriceTick: 25}
	mk := func() []DealSetup {
		pop, err := NewPopulation(7, PopOptions{
			Deals: 24, Chains: 3, AdversaryRate: 0.35,
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pop
	}
	a, err := Run(opts, mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts, mk())
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := hedgeFingerprint(a), hedgeFingerprint(b)
	if fa != fb {
		t.Fatal("hedged arena not deterministic across runs")
	}
	if a.Interference.HedgeBinds == 0 {
		t.Fatal("hedged population bound no cover")
	}
	if len(a.Interference.HedgeSamples) != a.Interference.HedgeBinds {
		t.Fatalf("hedge samples %d != binds %d", len(a.Interference.HedgeSamples), a.Interference.HedgeBinds)
	}
}

// TestHedgedPopulationIsSeedTwin: the Hedge option must not consume
// randomness — the hedged population's shapes, specs, adversaries, and
// start offsets are identical to its unhedged twin's, differing only in
// Behavior.Hedged on the compliant slots.
func TestHedgedPopulationIsSeedTwin(t *testing.T) {
	const seed = 13
	base := PopOptions{Deals: 20, Chains: 4, AdversaryRate: 0.4}
	bare, err := NewPopulation(seed, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	covered, err := NewPopulation(seed, base, Options{Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	hedgedParties := 0
	for k := range bare {
		a, b := bare[k], covered[k]
		if a.Seed != b.Seed || a.Shape != b.Shape || a.StartOffset != b.StartOffset ||
			a.Adversaries != b.Adversaries || a.Spec.ID != b.Spec.ID {
			t.Fatalf("deal %d diverged from its twin: %+v vs %+v", k, a, b)
		}
		for _, p := range a.Spec.Parties {
			ab, bb := a.Behaviors[p], b.Behaviors[p]
			if ab.Hedged {
				t.Fatalf("deal %d: unhedged population carries Hedged party %s", k, p)
			}
			if bb.Hedged {
				hedgedParties++
				if !ab.Compliant() {
					t.Fatalf("deal %d: adversary slot %s got hedged", k, p)
				}
				continue
			}
			if ab != bb {
				t.Fatalf("deal %d party %s: behaviors diverged: %+v vs %+v", k, p, ab, bb)
			}
		}
	}
	if hedgedParties == 0 {
		t.Fatal("no hedged parties in the hedged twin")
	}
}
