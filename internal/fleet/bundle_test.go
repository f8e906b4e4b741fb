package fleet

import (
	"bytes"
	"fmt"
	"testing"
)

// bundledOpts is the canonical bundled fee-market arena sweep: tight
// blocks on few chains so bundles genuinely contend, and an adversary
// mix whose front-runner slot griefs at bundle granularity.
func bundledOpts(deals, workers int, bundles bool) Options {
	o := Options{
		Deals:   deals,
		Workers: workers,
		Gen: GenOptions{
			Seed:          7,
			Protocol:      "mixed",
			AdversaryRate: 0.4,
			Fees:          &FeeOptions{BaseFee: 100, TipBudget: 400},
		},
		Arena: &ArenaOptions{DealsPerArena: 20, Chains: 2, MaxBlockTxs: 4, Volatility: 0.05},
	}
	o.Arena.Bundles = bundles
	return o
}

func renderedBundleReport(t *testing.T, opts Options) string {
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

// TestBundleSweepDeterministicAcrossWorkerCounts: the bundled arena
// sweep keeps the fleet's reproducibility contract — byte-identical
// reports (tables and JSON, bundle-auctions block included) at 1, 4,
// and 16 workers. Run under -race this also exercises the bundled
// fan-out.
func TestBundleSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	deals := 60
	if testing.Short() {
		deals = 20 // equality check only: scale the sweep, keep the pool racing
	}
	want := renderedBundleReport(t, bundledOpts(deals, 1, true))
	for _, workers := range []int{4, 16} {
		if got := renderedBundleReport(t, bundledOpts(deals, workers, true)); got != want {
			t.Fatalf("bundled report at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestBundleSweepExclusionBeatsFeeBidTwin is the fleet-level acceptance
// assertion: on the same master seed — the populations are
// field-by-field twins, the same front-runner slots griefing at bundle
// vs transaction granularity — the bundled sweep excludes victim
// deals' work from strictly more blocks than the tx-level fee-bidding
// twin, and the BundleAuctions block carries the evidence (attempts,
// landed exclusions, slack deciles). The tx-level twin carries no
// bundle block at all.
func TestBundleSweepExclusionBeatsFeeBidTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical twin comparison needs the full population")
	}
	bundled, err := Sweep(bundledOpts(60, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	txLevel, err := Sweep(bundledOpts(60, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	if txLevel.BundleAuctions != nil {
		t.Fatal("tx-level sweep carries a bundle-auctions block")
	}
	b := bundled.BundleAuctions
	if b == nil {
		t.Fatal("bundled sweep lost its bundle-auctions block")
	}
	if b.Auctions == 0 || b.Wins == 0 || b.Defers == 0 {
		t.Fatalf("degenerate auction counters: %+v", b)
	}
	if b.ExclusionAttempts == 0 || b.ExclusionSuccesses == 0 {
		t.Fatalf("bundle griefing never engaged: %+v", b)
	}
	// A landed exclusion is an auction with a deferred victim, so
	// successes are bounded by total deferrals (not by attempts: a
	// raise is a standing bid and can land in many blocks).
	if b.ExclusionSuccesses > b.Defers {
		t.Fatalf("more landed exclusions (%d) than deferrals (%d)", b.ExclusionSuccesses, b.Defers)
	}
	if len(b.SlackByBidDecile) == 0 {
		t.Fatal("no deadline-slack deciles despite wins")
	}
	wins := 0
	for _, d := range b.SlackByBidDecile {
		wins += d.Wins
	}
	if wins != b.Wins {
		t.Fatalf("slack deciles cover %d wins, block reports %d", wins, b.Wins)
	}
	if got, want := b.VictimExclusionBlocks, bundled.Interference.VictimExclusionBlocks; got != want {
		t.Fatalf("bundle block reports %d victim-exclusion blocks, interference %d", got, want)
	}
	bx, tx := b.VictimExclusionBlocks, txLevel.Interference.VictimExclusionBlocks
	if tx == 0 {
		t.Fatal("tx-level twin recorded no victim exclusions; the comparison is vacuous")
	}
	if bx <= tx {
		t.Fatalf("bundled sweep excluded victims in %d blocks, tx-level twin in %d — want strictly more", bx, tx)
	}
}

// TestBundleArenaReplayBitForBit: replaying a deal from a bundled
// sweep regenerates the identical outcome — twice over, and
// field-for-field — in an arena that ran bundle auctions.
func TestBundleArenaReplayBitForBit(t *testing.T) {
	opts := bundledOpts(40, 4, true)
	render := func(index int) string {
		out, err := ReplayArenaDeal(opts, index)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s adv=%d sore=%d races=%d fees=%d stranded=%d decided=%d summary=%s",
			out.Spec.ID, out.Adversaries, out.SoreLosers, out.FrontRuns,
			out.Result.DealFees, out.Stranded,
			out.Result.Phases.DecisionEnd, out.Result.Summary())
	}
	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	ao := *opts.Arena
	if err := ao.defaults(); err != nil {
		t.Fatal(err)
	}
	for _, index := range []int{3, 17, 28} {
		a, b := render(index), render(index)
		if a != b {
			t.Fatalf("replay of deal %d not bit-for-bit:\n--- first ---\n%s\n--- second ---\n%s", index, a, b)
		}
		res, err := runArena(gen, ao, index/ao.DealsPerArena, opts.Deals, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i := res.Interference; i.BundleWins+i.BundleDefers == 0 {
			t.Fatalf("the arena of deal %d ran no bundle auction", index)
		}
	}
}
