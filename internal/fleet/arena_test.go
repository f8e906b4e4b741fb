package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xdeal/internal/arena"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

// arenaOpts is the canonical arena-mode population used across tests:
// three shared worlds of twenty deals each.
func arenaOpts(deals, workers int) Options {
	return Options{
		Deals:   deals,
		Workers: workers,
		Gen: GenOptions{
			Seed:          7,
			Protocol:      "mixed",
			AdversaryRate: 0.35,
		},
		Arena: &ArenaOptions{DealsPerArena: 20, Chains: 3, Baselines: true},
	}
}

func renderedArenaReport(t *testing.T, opts Options) string {
	t.Helper()
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep.ReplayCommand = "dealsweep -seed 7 -arena -replay %d"
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFleetArenaDeterministicAcrossWorkerCounts: arena sweeps keep the
// fleet's contract — the report is byte-identical for any pool size,
// because each arena is a single-threaded deterministic simulation and
// results fold in arena order. Run under -race this also exercises the
// arena fan-out for data races.
func TestFleetArenaDeterministicAcrossWorkerCounts(t *testing.T) {
	deals := 60
	if testing.Short() {
		deals = 20 // equality check only: scale the sweep, keep the pool racing
	}
	want := renderedArenaReport(t, arenaOpts(deals, 1))
	for _, workers := range []int{2, 4, 8} {
		if got := renderedArenaReport(t, arenaOpts(deals, workers)); got != want {
			t.Fatalf("arena report at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestFleetArenaInterferenceMetrics: the arena report carries the
// interference block — arena count, inflation distribution with one
// sample per baselined deal, and live adversary counters — and the
// population stays free of compliant-party violations.
func TestFleetArenaInterferenceMetrics(t *testing.T) {
	rep, err := Sweep(arenaOpts(60, 4))
	if err != nil {
		t.Fatal(err)
	}
	inf := rep.Interference
	if inf == nil {
		t.Fatal("arena sweep produced no interference metrics")
	}
	if inf.Arenas != 3 || inf.Chains != 3 {
		t.Fatalf("interference geometry wrong: %+v", inf)
	}
	if inf.LatencyInflation.Count == 0 {
		t.Fatal("baselines on, yet no latency-inflation samples")
	}
	if inf.FrontRunAttempts == 0 {
		t.Fatal("no front-run races at 35% adversary rate; the mempool hook is dead")
	}
	if inf.FrontRunWins > inf.FrontRunAttempts {
		t.Fatalf("won %d of %d races", inf.FrontRunWins, inf.FrontRunAttempts)
	}
	if !rep.Clean() {
		var buf bytes.Buffer
		rep.Fprint(&buf)
		t.Fatalf("arena population not clean:\n%s", buf.String())
	}
	if rep.Total.Runs != 60 {
		t.Fatalf("ran %d deals, want 60", rep.Total.Runs)
	}
	// Isolated-mode sweeps must not grow an interference block.
	plain, err := Sweep(sweepOpts(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Interference != nil {
		t.Fatal("isolated sweep reports interference")
	}
}

// TestFleetArenaReplayDeterministic: a flagged arena deal replays
// bit-for-bit from its population index — same seed, same spec, same
// outcome — and out-of-range indices are rejected.
func TestFleetArenaReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay indices are baked for the full 60-deal population")
	}
	opts := arenaOpts(60, 4)
	for _, idx := range []int{0, 19, 20, 42, 59} {
		a, err := ReplayArenaDeal(opts, idx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReplayArenaDeal(opts, idx)
		if err != nil {
			t.Fatal(err)
		}
		fa := fmt.Sprintf("%d %d %s %v %s", a.Seed, a.Adversaries, a.Spec.ID, a.Result.Phases.DecisionEnd, a.Result.Summary())
		fb := fmt.Sprintf("%d %d %s %v %s", b.Seed, b.Adversaries, b.Spec.ID, b.Result.Phases.DecisionEnd, b.Result.Summary())
		if fa != fb {
			t.Fatalf("replay of arena deal %d not deterministic:\n%s\n---\n%s", idx, fa, fb)
		}
	}
	if _, err := ReplayArenaDeal(opts, 60); err == nil {
		t.Fatal("out-of-range replay index accepted")
	}
	if _, err := ReplayArenaDeal(Options{Deals: 10, Gen: GenOptions{Seed: 1}}, 0); err == nil {
		t.Fatal("arena replay without arena options accepted")
	}
}

// TestFleetSweepStreamsIdenticalToBatch: Sweep's streaming fold (chunked
// jobs, constant memory) produces byte-for-byte the report of the batch
// path (materialize all records, Aggregate) — the population is large
// enough to cross several chunk boundaries.
func TestFleetSweepStreamsIdenticalToBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a population large enough to cross several chunk boundaries")
	}
	opts := sweepOpts(150, 4)
	streamed, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	batch := Aggregate(RunJobs(gen.Jobs(150), 4))
	var a, b bytes.Buffer
	streamed.Fprint(&a)
	if err := streamed.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	batch.Fprint(&b)
	if err := batch.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("streamed and batch reports diverge:\n--- streamed ---\n%s\n--- batch ---\n%s", a.String(), b.String())
	}
}

// TestArenaSweepStreamsIdenticalToBatch: an arena sweep long enough to
// cross a chunk boundary (75 arenas of two deals, against chunks of 64
// worlds below 8 workers), with fees, bundles, hedging and baselines
// on, renders the same report and metrics snapshot at 1, 4 and 16
// workers, and both equal a fold of every arena's runArena result, in
// index order, through one aggregator, each arena's metrics shard
// merged in the same order. Small enough for -short, so the
// race run covers the shared chunk slots.
func TestArenaSweepStreamsIdenticalToBatch(t *testing.T) {
	const deals = 150
	opts := arenaOpts(deals, 1)
	opts.Gen.Fees = &FeeOptions{}
	opts.Arena = &ArenaOptions{DealsPerArena: 2, Chains: 2, Baselines: true, Bundles: true, Hedge: true}
	render := func(rep *Report, reg *obs.Registry) string {
		var buf bytes.Buffer
		rep.Fprint(&buf)
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	ao := *opts.Arena
	agg, reg := NewAggregator(), obs.NewRegistry()
	agg.EnableFees(gen.opts.Fees.BaseFee, gen.opts.Fees.TipBudget)
	agg.EnableObs(reg, nil)
	n, _, err := arenaWorlds(gen, ao, deals, agg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ao.defaults(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a++ {
		shard := obs.NewRegistry()
		res, err := runArena(gen, ao, a, deals, shard)
		if err != nil {
			t.Fatal(err)
		}
		reg.Merge(shard)
		proto, _ := arenaProtocol(opts.Gen.Protocol, a)
		agg.addWorld(&world{arena: res, first: a * ao.DealsPerArena, proto: proto, fees: res.Fees, inter: res.Interference})
	}
	batch := agg.Report()
	if batch.Interference.Arenas != 75 || batch.BundleAuctions == nil || batch.Hedging == nil ||
		batch.Interference.LatencyInflation.Count == 0 {
		t.Fatalf("batch fold lacks a block: %+v", batch.Interference)
	}
	want := render(batch, reg)

	for _, workers := range []int{1, 4, 16} {
		opts.Workers = workers
		reg := obs.NewRegistry()
		opts.Obs = &ObsOptions{Metrics: reg}
		rep, err := Sweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(rep, reg); got != want {
			t.Fatalf("streamed arena sweep at %d workers diverges from the batch fold:\n--- batch ---\n%s\n--- streamed ---\n%s",
				workers, want, got)
		}
	}
}

// TestSketchConstantMemory: a million samples collapse into a bounded
// bucket set; count, min, max and mean stay exact and the percentile
// estimates stay within the sketch's 2% relative resolution.
func TestSketchConstantMemory(t *testing.T) {
	var s Sketch
	rng := sim.NewRNG(1)
	n := 1_000_000
	for i := 0; i < n; i++ {
		s.Add(float64(1 + rng.Intn(1_000_000)))
	}
	if len(s.buckets) > 1200 {
		t.Fatalf("sketch grew %d buckets over a 10^6 range; memory is not constant", len(s.buckets))
	}
	d := s.Dist()
	if d.Count != n {
		t.Fatalf("count = %d, want %d", d.Count, n)
	}
	if d.Min < 1 || d.Max > 1_000_000 {
		t.Fatalf("bounds wrong: %+v", d)
	}
	if d.Mean < 490_000 || d.Mean > 510_000 {
		t.Fatalf("mean %v far from uniform expectation", d.Mean)
	}
	for _, q := range []struct {
		got, want float64
	}{{d.P50, 500_000}, {d.P90, 900_000}, {d.P99, 990_000}} {
		if rel := q.got/q.want - 1; rel < -0.03 || rel > 0.03 {
			t.Fatalf("percentile %v deviates %v from %v", q.got, rel, q.want)
		}
	}
	// Zero and negative samples sort below every bucket.
	var z Sketch
	z.Add(0)
	z.Add(-5)
	z.Add(10)
	dz := z.Dist()
	if dz.P50 != 0 || dz.Min != -5 || dz.Max != 10 || dz.Count != 3 {
		t.Fatalf("non-positive handling wrong: %+v", dz)
	}
}

// TestReportReplayCommandRendered: when the caller supplies the replay
// command format, every flagged violation gets a ready-to-paste line.
func TestReportReplayCommandRendered(t *testing.T) {
	rep := Aggregate([]Record{
		{Index: 3, Seed: 11, SpecID: "ring-3/ring", Shape: ShapeRing, Protocol: "timelock",
			Sequenceable: true, Committed: true, SafetyViolations: []string{"party p: hurt"}},
	})
	rep.ReplayCommand = "dealsweep -seed 9 -deals 50 -replay %d"
	var buf bytes.Buffer
	rep.Fprint(&buf)
	want := "replay: dealsweep -seed 9 -deals 50 -replay 3"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report missing %q:\n%s", want, buf.String())
	}
}

// TestZeroValuedArenaSweepEchoesResolvedDefaults: a sweep shaped like the
// arena-congested benchmark workload leaves every fee, bundle and hedge
// knob zero. Its report echoes the values arena.Options resolves them
// to, its population carries the resolved bundle budget, and its deal 0
// replays exactly as deal 0 of an arena run with those values written
// out.
func TestZeroValuedArenaSweepEchoesResolvedDefaults(t *testing.T) {
	opts := Options{
		Deals:   50,
		Workers: 2,
		Gen:     GenOptions{Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, Fees: &FeeOptions{}},
		Arena:   &ArenaOptions{DealsPerArena: 50, Chains: 2, Bundles: true, Hedge: true},
	}
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if og := rep.OrderingGames; og == nil || og.BaseFee != 100 || og.TipBudget != 400 {
		t.Fatalf("ordering games %+v, want base fee 100 and tip budget 400", og)
	}
	if h := rep.Hedging; h == nil || h.Collateral != 1.0 || h.VolWindow != 32 {
		t.Fatalf("hedging %+v, want collateral 1.0 and window 32", h)
	}
	if b := rep.BundleAuctions; b == nil || b.Budget != 400 {
		t.Fatalf("bundle auctions %+v, want budget 400", b)
	}

	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := gen.ArenaPopulation(0, opts.Deals, *opts.Arena)
	if err != nil {
		t.Fatal(err)
	}
	griefers := 0
	for _, setup := range pop {
		for _, b := range setup.Behaviors {
			if b.BundleGrief {
				griefers++
				if b.BundleBudget != 400 {
					t.Fatalf("deal %d: bundle griefer budget %d, want 400", setup.Index, b.BundleBudget)
				}
			}
		}
	}
	if griefers == 0 {
		t.Fatal("population drew no bundle griefer; pick another seed")
	}
	zero, err := arenaRunOptions(gen.opts, *opts.Arena, 0)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := arena.Run(arena.Options{
		Seed: zero.Seed, Protocol: "timelock", Volatility: 0.02, MaxBlockTxs: 8,
		FeeMarket: true, BaseFee: 100, TipBudget: 400,
		Bundles: true, BundleBudget: 400,
		Hedge: true, HedgeCollateral: 1.0, PremiumVolWindow: 32,
	}, pop)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayArenaDeal(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	render := func(out *arena.DealOutcome) string {
		return fmt.Sprintf("%s seed=%d adv=%d sore=%d races=%d fees=%d stranded=%d payouts=%d gas=%d decided=%d\n%s",
			out.Spec.ID, out.Seed, out.Adversaries, out.SoreLosers, out.FrontRuns,
			out.Result.DealFees, out.Stranded, out.Payouts,
			out.Result.DealGas, out.Result.Phases.DecisionEnd, out.Result.Summary())
	}
	if got, want := render(replayed), render(&explicit.Outcomes[0]); got != want {
		t.Fatalf("replayed deal 0 differs from the explicit-default arena:\n--- replay ---\n%s\n--- explicit ---\n%s", got, want)
	}
}
