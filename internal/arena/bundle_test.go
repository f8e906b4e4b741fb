package arena

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/party"
)

// bundleFingerprint extends the hedge fingerprint with every bundle
// observation, so determinism checks cover the auction subsystem.
func bundleFingerprint(res *Result) string {
	s := hedgeFingerprint(res)
	i := res.Interference
	s += fmt.Sprintf("bundles auctions=%d wins=%d defers=%d attempts=%d successes=%d victimblocks=%d\n",
		i.BundleAuctions, i.BundleWins, i.BundleDefers,
		i.ExclusionAttempts, i.ExclusionSuccesses, i.VictimExclusionBlocks)
	for _, b := range i.BundleSamples {
		s += fmt.Sprintf("%d/%d;", b.PerSlot, b.SlackMilli)
	}
	return s
}

// bundleOptions is the shared bundle-arena configuration of this file.
func bundleOptions(seed uint64, bundles bool) Options {
	return Options{
		Seed: seed, FeeMarket: true, Bundles: bundles,
		Volatility: 0.05, PriceTick: 25,
	}
}

// TestBundleArenaAuctionsRunAndDealsStillCommit: with bundles on, the
// shared chains run combinatorial auctions (wins and deferrals both
// observed), and an adversary-free population still commits its
// sequenceable deals — all-or-nothing inclusion must not starve
// compliant deals out of their timelock windows.
func TestBundleArenaAuctionsRunAndDealsStillCommit(t *testing.T) {
	opts := bundleOptions(11, true)
	opts.MaxBlockTxs = 4 // tight blocks: bundles must actually contend
	pop, err := NewPopulation(11, PopOptions{
		Deals: 12, Chains: 2, AdversaryRate: 0, StartGap: 25,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, pop)
	if err != nil {
		t.Fatal(err)
	}
	inter := res.Interference
	if inter.BundleAuctions == 0 || inter.BundleWins == 0 {
		t.Fatalf("no bundle auctions ran: %+v", inter)
	}
	if inter.BundleDefers == 0 {
		t.Fatal("no bundle was ever deferred; the population is not contending")
	}
	if len(inter.BundleSamples) != inter.BundleWins {
		t.Fatalf("slack samples %d != bundle wins %d", len(inter.BundleSamples), inter.BundleWins)
	}
	for _, out := range res.Outcomes {
		r := out.Result
		if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
			t.Fatalf("deal %d: bundles broke properties:\n%s", out.Index, r.Summary())
		}
		if out.Sequenceable && !r.AllCommitted {
			t.Fatalf("compliant sequenceable deal %d failed to commit under bundles:\n%s",
				out.Index, r.Summary())
		}
	}
}

// TestBundleArenaDeterministic: a bundled fee-market arena remains a
// pure function of its options, auction ledgers included.
func TestBundleArenaDeterministic(t *testing.T) {
	opts := bundleOptions(7, true)
	opts.Hedge = true
	mk := func() []DealSetup {
		pop, err := NewPopulation(7, PopOptions{
			Deals: 18, Chains: 2, AdversaryRate: 0.35,
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
	if bundleFingerprint(a) != bundleFingerprint(b) {
		t.Fatal("bundled arena not deterministic across runs")
	}
	if a.Interference.BundleWins == 0 {
		t.Fatal("bundled arena ran no auctions")
	}
}

// TestBundlePopulationIsSeedTwin: the Bundles flag must not consume
// randomness — the bundle population's shapes, specs, start offsets,
// and adversary draw are identical to its tx-level twin's, differing
// only in the front-runner slot's granularity upgrade (fee bidder ->
// bundle griefer).
func TestBundlePopulationIsSeedTwin(t *testing.T) {
	const seed = 13
	base := PopOptions{Deals: 24, Chains: 4, AdversaryRate: 0.4}
	txLevel, err := NewPopulation(seed, base, bundleOptions(0, false))
	if err != nil {
		t.Fatal(err)
	}
	bundled, err := NewPopulation(seed, base, bundleOptions(0, true))
	if err != nil {
		t.Fatal(err)
	}
	griefers := 0
	for k := range txLevel {
		a, b := txLevel[k], bundled[k]
		if a.Seed != b.Seed || a.Shape != b.Shape || a.StartOffset != b.StartOffset ||
			a.Adversaries != b.Adversaries || a.Spec.ID != b.Spec.ID {
			t.Fatalf("deal %d diverged from its twin: %+v vs %+v", k, a, b)
		}
		for _, p := range a.Spec.Parties {
			ab, bb := a.Behaviors[p], b.Behaviors[p]
			if _, ok := kindIn[party.BundleGrief](ab); ok {
				t.Fatalf("deal %d: tx-level population carries bundle griefer %s", k, p)
			}
			if grief, ok := kindIn[party.BundleGrief](bb); ok {
				griefers++
				if race, ok := kindIn[party.FrontRun](ab); !ok || race.Bid == nil {
					t.Fatalf("deal %d: bundle griefer %s did not come from the fee-bid slot (%+v)", k, p, ab)
				}
				if race, _ := kindIn[party.FrontRun](bb); race.Bid != nil {
					t.Fatalf("deal %d: griefer %s still fee-bids single txs", k, p)
				}
				if grief.Budget == 0 {
					t.Fatalf("deal %d: griefer %s has no budget", k, p)
				}
				continue
			}
			if !reflect.DeepEqual(ab, bb) {
				t.Fatalf("deal %d party %s: behaviors diverged: %+v vs %+v", k, p, ab, bb)
			}
		}
	}
	if griefers == 0 {
		t.Fatal("no bundle griefers in the bundled twin")
	}
}

// TestBundleGrieferExcludesMoreThanFeeBidder is the headline acceptance
// claim of the auction: on the same seeds — the populations are
// field-by-field twins, with the same front-runner slots griefing at
// bundle vs transaction granularity — the bundle griefer excludes
// victim deals' work from measurably more blocks than the single-tx
// fee bidder manages, because outbidding a bundle displaces its whole
// slot footprint at once.
func TestBundleGrieferExcludesMoreThanFeeBidder(t *testing.T) {
	run := func(bundles bool) *Result {
		opts := bundleOptions(7, bundles)
		opts.MaxBlockTxs = 4
		pop, err := NewPopulation(7, PopOptions{
			Deals: 20, Chains: 2, AdversaryRate: 0.4,
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(opts, pop)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	txLevel, bundled := run(false), run(true)
	if bundled.Interference.ExclusionAttempts == 0 {
		t.Fatal("bundle griefers never bid against a victim")
	}
	if bundled.Interference.ExclusionSuccesses == 0 {
		t.Fatal("no griefing raise ever landed an exclusion")
	}
	bx, tx := bundled.Interference.VictimExclusionBlocks, txLevel.Interference.VictimExclusionBlocks
	if bx <= tx {
		t.Fatalf("bundle griefing excluded victims in %d blocks, tx-level fee bidding in %d — want strictly more",
			bx, tx)
	}
	// And the attack must not corrupt the protocol itself.
	for _, out := range bundled.Outcomes {
		r := out.Result
		if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
			t.Fatalf("deal %d: bundle griefing broke properties:\n%s", out.Index, r.Summary())
		}
	}
}

// TestBundleLossStreakSurchargesPremiums: in a hedged bundled arena,
// binds that land after their deal's bundle has lost auctions carry
// the streak surcharge — observed streaks above zero, and every
// surcharge strictly increasing in the streak is asserted at the
// contract level (see internal/hedge); here we assert the arena
// actually produces streaked binds and prices them higher than their
// zero-streak floor.
func TestBundleLossStreakSurchargesPremiums(t *testing.T) {
	opts := bundleOptions(5, true)
	opts.Hedge = true
	opts.MaxBlockTxs = 4
	pop, err := NewPopulation(5, PopOptions{
		Deals: 16, Chains: 2, AdversaryRate: 0.35, StartGap: 25,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, pop)
	if err != nil {
		t.Fatal(err)
	}
	inter := res.Interference
	if inter.HedgeBinds == 0 {
		t.Fatal("hedged bundled population bound no cover")
	}
	streaked := 0
	for _, h := range inter.HedgeSamples {
		if h.Streak > 0 {
			streaked++
		}
		if h.Streak < 0 {
			t.Fatalf("negative streak in sample %+v", h)
		}
	}
	if streaked == 0 {
		t.Fatal("no bind ever priced a bundle-loss streak; the surcharge never engaged")
	}
}

// kindIn returns b's deviation of kind D, if b names it.
func kindIn[D party.Deviation](b party.Behavior) (D, bool) {
	for _, d := range b {
		if v, ok := d.(D); ok {
			return v, true
		}
	}
	var none D
	return none, false
}
