// Command dealsweep executes a fleet of randomized cross-chain deals
// concurrently and reports population statistics: commit/abort rates by
// scenario shape and protocol, gas and decision-latency percentiles,
// and every safety/liveness property violation flagged with the seed
// that replays it.
//
//	dealsweep -deals 1000 -workers 8
//	dealsweep -deals 500 -protocol cbc -adversary-rate 0.5 -dos-rate 0.3
//	dealsweep -deals 200 -seed 7 -json
//	dealsweep -seed 7 -replay 131        # re-run flagged deal 131 in full
//
// Arena mode runs the population in *shared worlds* instead of isolated
// ones: -arena-deals deals per world contend for -chains chains with
// capped block capacity, against adaptive adversaries (sore losers
// reacting to a -volatility price process, mempool front-runners,
// griefing depositors). The report gains interference metrics:
// contention-induced decision-latency inflation, sore-loser losses, and
// front-run counts.
//
//	dealsweep -arena -deals 200 -seed 7
//	dealsweep -arena -deals 200 -chains 2 -volatility 0.05
//	dealsweep -arena -deals 200 -seed 7 -replay 42
//
// Fee-market mode (-feemarket, isolated or arena) replaces FIFO block
// inclusion with tip-ordered blocks under an EIP-1559-style base fee:
// compliant parties escalate tips as timelock deadlines approach, the
// front-runner slot of the adversary mix becomes a fee bidder that
// outbids the transactions it races (capped by -tip-budget), and the
// report gains an ordering-games block (fees burned/tipped, fee spend
// per committed deal, plain vs fee-bid race win rates, inclusion delay
// by tip decile).
//
//	dealsweep -deals 200 -seed 7 -feemarket
//	dealsweep -arena -deals 200 -seed 7 -feemarket -base-fee 50 -tip-budget 800
//
// Bundle mode (-bundles, arena + feemarket) turns the ordering game
// deal-granular: every shared chain runs a per-block combinatorial
// auction in which each deal's pending transactions compete as one
// all-or-nothing bundle with an aggregate bid (greedy winner
// determination by bid-per-slot density, FIFO revenue floor), compliant
// parties escalate their deal's per-slot bid toward the timelock
// deadline, the front-runner slot of the adversary mix griefs whole
// bundles from a -bundle-budget, and the report gains a bundle-auctions
// block (win/defer rates, exclusion attempts/successes, deadline slack
// by bid decile). -budget-bundle-defer gates the population's bundle
// defer rate.
//
//	dealsweep -arena -deals 200 -seed 7 -feemarket -bundles
//	dealsweep -arena -deals 200 -seed 7 -feemarket -bundles -bundle-budget 800
//
// Hedge mode (-hedge, arena only) arms the sore-loser defense of Xue &
// Herlihy: every fungible escrow gains a premium-priced insurance
// contract, the compliant mix slots refuse to lock unhedged deposits
// (collateral = deposit × -hedge-collateral, premiums priced off each
// chain's realized base-fee volatility over -premium-vol-window
// blocks), and the report gains a hedging block — premiums, payouts,
// gross vs residual sore-loser loss, and premium cost by base-fee-
// volatility decile.
//
//	dealsweep -arena -deals 200 -seed 7 -feemarket -hedge
//	dealsweep -arena -deals 200 -seed 7 -feemarket -hedge -hedge-collateral 1.5
//
// Budgets turn the sweep into a CI gate: -budget-p99-delta and
// -budget-p99-gas fail the run (exit 1) when the population's p99
// decision latency (in Δ units) or p99 per-deal gas exceeds the budget,
// -budget-fee-per-commit gates the fee-market cost of a committed deal,
// and -budget-residual-loss gates the residual sore-loser loss a hedged
// sweep may leave unabsorbed — so performance and defense regressions
// fail CI alongside property violations.
//
// The report depends only on (-seed, -deals, generator flags) — never
// on -workers — so sweeps are reproducible; a violation flagged at
// index i replays with -replay i under the same flags (table mode
// prints the exact command next to each violation).
// Exit status: 0 for a clean population within budget, 1 when any
// property violation, run error, or budget breach was observed, 2 for
// bad usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/obs"
	"xdeal/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored so tests can drive flag parsing,
// validation, and report rendering in-process (the -json golden file
// depends on that).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dealsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)

	deals := fs.Int("deals", 100, "population size")
	workers := fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
	seed := fs.Uint64("seed", 1, "master seed; fully determines the population")
	protocol := fs.String("protocol", "mixed", "protocol: timelock | cbc | mixed")
	adversaryRate := fs.Float64("adversary-rate", 0.3, "probability each party deviates [0, 1]")
	dosRate := fs.Float64("dos-rate", 0.15, "probability a run includes a DoS outage window [0, 1] (isolated mode)")
	maxParties := fs.Int("max-parties", 6, "largest generated deal size")
	serializeRounds := fs.Bool("serialize-rounds", false, "gate each party's rounds strictly (escrow confirm before transfers, transfers before votes) instead of pipelining; same seeds generate the same deals either way")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of tables")
	replayIndex := fs.Int("replay", -1, "re-run this deal index from the sweep in full detail")
	explain := fs.Bool("explain", false, "with -replay: print the replayed deal's critical path and latency attribution as an annotated timeline")
	chromeTrace := fs.String("chrome-trace", "", "with -replay: write the replayed deal's causal trace as Chrome trace-event JSON to this path (opens in ui.perfetto.dev)")

	feeMarket := fs.Bool("feemarket", false, "enable per-chain fee markets: tip-ordered blocks, EIP-1559 base fee, fee-bidding front-runners")
	baseFee := fs.Uint64("base-fee", 100, "initial base fee (feemarket mode)")
	tipBudget := fs.Uint64("tip-budget", 400, "fee-bidding front-runner tip budget (feemarket mode)")

	arenaMode := fs.Bool("arena", false, "arena mode: deals share worlds and contend for chains")
	arenaDeals := fs.Int("arena-deals", 25, "deals per shared world (arena mode)")
	chains := fs.Int("chains", 4, "shared chains per arena (arena mode)")
	volatility := fs.Float64("volatility", 0.02, "market price volatility per tick (arena mode)")
	noBaselines := fs.Bool("no-baselines", false, "skip isolated baselines; drops the latency-inflation metric (arena mode)")

	bundleMode := fs.Bool("bundles", false, "combinatorial block-space auctions: deals bid for blocks as all-or-nothing bundles, front-runners grief whole bundles (arena + feemarket mode)")
	bundleBudget := fs.Uint64("bundle-budget", 400, "bundle griefer per-slot bid increment budget (bundles mode)")

	hedgeMode := fs.Bool("hedge", false, "arm the sore-loser defense: premium-priced deposit insurance for compliant parties (arena mode)")
	hedgeCollateral := fs.Float64("hedge-collateral", 1.0, "collateral bond as a multiple of the insured deposit (hedge mode)")
	premiumVolWindow := fs.Int("premium-vol-window", 32, "base-fee volatility window, in blocks, premiums are priced over (hedge mode)")

	metricsJSON := fs.String("metrics-json", "", "write the sweep's metrics-registry snapshot (blocks sealed, mempool high-water, queue delays, fee/hedge ledgers) to this file as JSON")
	metricsCSV := fs.String("metrics-csv", "", "write the metrics-registry snapshot to this file as CSV")
	flightRecord := fs.String("flight-record", "", "write a JSONL flight-record evidence file to this path when the sweep fails (property violation, run error, or budget breach)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at sweep end")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile to this file at sweep end")

	budgetP99Delta := fs.Float64("budget-p99-delta", 0, "fail (exit 1) when p99 decision latency exceeds this many Δ (0 = off)")
	budgetP99Gas := fs.Float64("budget-p99-gas", 0, "fail (exit 1) when p99 per-deal gas exceeds this (0 = off)")
	budgetFeePerCommit := fs.Float64("budget-fee-per-commit", 0, "fail (exit 1) when mean fee spend per committed deal exceeds this (feemarket mode, 0 = off)")
	budgetResidualLoss := fs.Float64("budget-residual-loss", 0, "fail (exit 1) when residual sore-loser loss exceeds this (hedge mode, 0 = off)")
	budgetBundleDefer := fs.Float64("budget-bundle-defer", 0, "fail (exit 1) when the bundle defer rate exceeds this fraction (bundles mode, 0 = off)")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "dealsweep: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dealsweep: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *deals < 0 {
		return fail("-deals must be non-negative")
	}
	// Reject degenerate knobs outright instead of silently substituting
	// defaults: a sweep gated in CI must mean what its flags say.
	if *feeMarket && *tipBudget == 0 {
		return fail("-tip-budget must be positive (a zero-budget fee bidder is a plain racer in disguise)")
	}
	if *arenaMode && *arenaDeals <= 0 {
		return fail("-arena-deals must be positive, got %d", *arenaDeals)
	}
	if *hedgeMode {
		if !*arenaMode {
			return fail("-hedge needs -arena (hedged populations are arena populations)")
		}
		if *hedgeCollateral <= 0 {
			return fail("-hedge-collateral must be positive, got %v", *hedgeCollateral)
		}
		if *premiumVolWindow <= 0 {
			return fail("-premium-vol-window must be positive, got %d", *premiumVolWindow)
		}
	}
	if *bundleMode {
		if !*feeMarket {
			return fail("-bundles needs -feemarket (an all-or-nothing bundle bids into the fee market's ledger)")
		}
		if !*arenaMode {
			return fail("-bundles needs -arena (bundles compete against other deals' bundles for shared blocks)")
		}
		if *bundleBudget == 0 {
			// Behavior.BundleBudget treats 0 as unlimited, but sweep
			// options default 0 away — at the CLI the two readings are
			// indistinguishable, so demand an explicit cap.
			return fail("-bundle-budget must be positive (0 is ambiguous: unlimited at the Behavior level, defaulted in sweeps — pick an explicit cap)")
		}
	}
	if *budgetFeePerCommit > 0 && !*feeMarket {
		return fail("-budget-fee-per-commit needs -feemarket")
	}
	if *budgetResidualLoss > 0 && !*hedgeMode {
		return fail("-budget-residual-loss needs -hedge")
	}
	if *budgetBundleDefer > 0 && !*bundleMode {
		return fail("-budget-bundle-defer needs -bundles")
	}
	if *explain && *replayIndex < 0 {
		return fail("-explain needs -replay (a critical path is a property of one replayed deal)")
	}
	if *chromeTrace != "" && *replayIndex < 0 {
		return fail("-chrome-trace needs -replay (the exporter serializes one replayed deal's causal trace)")
	}
	if (*explain || *chromeTrace != "") && *arenaMode {
		return fail("-explain and -chrome-trace need an isolated replay (arena chains interleave many deals; drop -arena to trace one)")
	}
	gen := fleet.GenOptions{
		Seed:            *seed,
		Protocol:        *protocol,
		AdversaryRate:   *adversaryRate,
		DoSRate:         *dosRate,
		MaxParties:      *maxParties,
		SerializeRounds: *serializeRounds,
	}
	if *feeMarket {
		gen.Fees = &fleet.FeeOptions{BaseFee: *baseFee, TipBudget: *tipBudget}
	}
	opts := fleet.Options{
		Deals:   *deals,
		Workers: *workers,
		Gen:     gen,
	}
	if *arenaMode {
		opts.Arena = &fleet.ArenaOptions{
			DealsPerArena: *arenaDeals,
			Chains:        *chains,
			Volatility:    *volatility,
			Baselines:     !*noBaselines,
		}
		if *bundleMode {
			opts.Arena.Bundles = true
			opts.Arena.BundleBudget = *bundleBudget
		}
		if *hedgeMode {
			opts.Arena.Hedge = true
			opts.Arena.HedgeCollateral = *hedgeCollateral
			opts.Arena.PremiumVolWindow = *premiumVolWindow
		}
	}

	if *replayIndex >= 0 {
		if *arenaMode {
			return replayArena(stdout, stderr, opts, *replayIndex)
		}
		return replay(stdout, stderr, gen, *replayIndex, *explain, *chromeTrace)
	}

	// The observability layer. The registry and flight recorder exist
	// only when their flags ask for output. None of it can reach the
	// report: obs instruments are passive by contract.
	ob := &fleet.ObsOptions{}
	if *metricsJSON != "" || *metricsCSV != "" {
		ob.Metrics = obs.NewRegistry()
	}
	if *flightRecord != "" {
		ob.Flight = obs.NewRecorder(0)
		ob.Flight.Record(-1, "dealsweep", "config",
			fmt.Sprintf("seed=%d deals=%d workers=%d arena=%t replay=%q",
				*seed, *deals, *workers, *arenaMode, replayCommand(opts)))
	}
	opts.Obs = ob

	prof := obs.Profiles{CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile}
	var stopProf func() error
	if prof.Enabled() {
		var err error
		stopProf, err = prof.Start()
		if err != nil {
			return fail("%v", err)
		}
	}

	rep, err := fleet.Sweep(opts)
	if stopProf != nil {
		if perr := stopProf(); perr != nil {
			fmt.Fprintf(stderr, "dealsweep: profile: %v\n", perr)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: %v\n", err)
		return 2
	}
	rep.ReplayCommand = replayCommand(opts)

	if *jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "dealsweep: %v\n", err)
			return 1
		}
	} else {
		rep.Fprint(stdout)
	}

	if ob.Metrics != nil {
		snap := ob.Metrics.Snapshot()
		if err := writeSnapshot(*metricsJSON, snap.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "dealsweep: %v\n", err)
			return 1
		}
		if err := writeSnapshot(*metricsCSV, snap.WriteCSV); err != nil {
			fmt.Fprintf(stderr, "dealsweep: %v\n", err)
			return 1
		}
	}

	failed := !rep.Clean()
	breach := func(format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		fmt.Fprintf(stderr, "dealsweep: BUDGET BREACH: %s\n", msg)
		ob.Flight.Record(-1, "dealsweep", "budget-breach", msg)
		failed = true
	}
	if *budgetP99Delta > 0 && rep.DeltaTime.P99 > *budgetP99Delta {
		breach("p99 decision latency %.2fΔ exceeds budget %.2fΔ",
			rep.DeltaTime.P99, *budgetP99Delta)
	}
	if *budgetP99Gas > 0 && rep.Gas.P99 > *budgetP99Gas {
		breach("p99 gas %.0f exceeds budget %.0f", rep.Gas.P99, *budgetP99Gas)
	}
	if *budgetFeePerCommit > 0 && rep.OrderingGames != nil &&
		rep.OrderingGames.FeePerCommit > *budgetFeePerCommit {
		breach("fee per committed deal %.1f exceeds budget %.1f",
			rep.OrderingGames.FeePerCommit, *budgetFeePerCommit)
	}
	if *budgetBundleDefer > 0 && rep.BundleAuctions != nil &&
		rep.BundleAuctions.DeferRate() > *budgetBundleDefer {
		breach("bundle defer rate %.3f exceeds budget %.3f (%d won / %d deferred)",
			rep.BundleAuctions.DeferRate(), *budgetBundleDefer,
			rep.BundleAuctions.Wins, rep.BundleAuctions.Defers)
	}
	if *budgetResidualLoss > 0 && rep.Hedging != nil &&
		float64(rep.Hedging.ResidualSoreLoserLoss) > *budgetResidualLoss {
		breach("residual sore-loser loss %d exceeds budget %g (gross %d, payouts %d)",
			rep.Hedging.ResidualSoreLoserLoss, *budgetResidualLoss,
			rep.Hedging.GrossSoreLoserLoss, rep.Hedging.PayoutsClaimed)
	}
	if failed {
		if ob.Flight != nil {
			if err := writeSnapshot(*flightRecord, ob.Flight.WriteJSONL); err != nil {
				fmt.Fprintf(stderr, "dealsweep: %v\n", err)
			} else {
				fmt.Fprintf(stderr, "dealsweep: flight record (%d events, %d evicted) written to %s\n",
					ob.Flight.Len(), ob.Flight.Dropped(), *flightRecord)
			}
			if !*arenaMode {
				writeViolationTrace(stderr, gen, rep, *flightRecord)
			}
		}
		return 1
	}
	return 0
}

// writeViolationTrace dumps the first flagged deal's causal trace as
// Chrome trace-event JSON next to the flight record, so the evidence a
// failed sweep ships includes the deal's happens-before timeline, not
// just the violation text. Isolated sweeps only: the deal is a pure
// function of (generator flags, index), so the re-run here is
// bit-identical to the one the sweep flagged.
func writeViolationTrace(stderr io.Writer, gen fleet.GenOptions, rep *fleet.Report, flightPath string) {
	if len(rep.Violations) == 0 || flightPath == "" {
		return
	}
	idx := rep.Violations[0].Index
	g, err := fleet.NewGenerator(gen)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: violation trace: %v\n", err)
		return
	}
	job := g.Job(idx)
	w, err := engine.Build(job.Spec, job.Opts)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: violation trace: build: %v\n", err)
		return
	}
	spans := w.DealSpans(w.Run())
	path := fmt.Sprintf("%s-deal%d.trace.json", strings.TrimSuffix(flightPath, ".jsonl"), idx)
	if err := writeSnapshot(path, func(out io.Writer) error {
		return trace.WriteChromeTrace(out, spans)
	}); err != nil {
		fmt.Fprintf(stderr, "dealsweep: violation trace: %v\n", err)
		return
	}
	fmt.Fprintf(stderr, "dealsweep: causal trace of flagged deal %d (%d spans) written to %s\n",
		idx, len(spans), path)
}

// writeSnapshot streams one observability artifact to path ("" skips).
func writeSnapshot(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay re-executes one generated scenario in full detail: the deal
// matrix, the settlement summary, and any property violations. This is
// the debugging path for a violation the sweep flagged. With explain it
// appends the deal's critical path and latency attribution; with a
// chromePath it writes the causal trace as Chrome trace-event JSON.
// Both views are post-hoc reads of retained state, so the replayed
// outcome is bit-identical to the sweep's either way.
func replay(stdout, stderr io.Writer, gen fleet.GenOptions, index int, explain bool, chromePath string) int {
	g, err := fleet.NewGenerator(gen)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: %v\n", err)
		return 2
	}
	job := g.Job(index)
	fmt.Fprintf(stdout, "replay deal %d (seed %d): %s — shape %s, protocol %s, %d adversaries, outage %v\n\n",
		job.Index, job.Seed, job.Spec.ID, job.Shape, job.Opts.Protocol, job.Adversaries, job.Outage)
	fmt.Fprintln(stdout, job.Spec.Matrix())
	w, err := engine.Build(job.Spec, job.Opts)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: build: %v\n", err)
		return 1
	}
	r := w.Run()
	fmt.Fprint(stdout, r.Summary())
	if explain {
		out, err := w.ExplainDeal(r)
		if err != nil {
			fmt.Fprintf(stderr, "dealsweep: explain: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s", out)
	}
	if chromePath != "" {
		spans := w.DealSpans(r)
		if err := writeSnapshot(chromePath, func(out io.Writer) error {
			return trace.WriteChromeTrace(out, spans)
		}); err != nil {
			fmt.Fprintf(stderr, "dealsweep: chrome-trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "dealsweep: chrome trace (%d spans) written to %s — open in ui.perfetto.dev\n",
			len(spans), chromePath)
	}
	violations := len(r.SafetyViolations) + len(r.LivenessViolations)
	// Apply the same Property 3 predicate the sweep aggregation uses,
	// so a deal the sweep flagged also fails its replay.
	if job.Adversaries == 0 && !job.Outage && job.Sequenceable && !r.AllCommitted {
		fmt.Fprintln(stdout, "  STRONG LIVENESS VIOLATION: all parties compliant yet the deal did not commit (Property 3)")
		violations++
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// replayArena re-runs the shared world containing the flagged deal and
// prints that deal's outcome — bit-identical to the sweep, since an
// arena is a pure function of (flags, arena index).
func replayArena(stdout, stderr io.Writer, opts fleet.Options, index int) int {
	out, err := fleet.ReplayArenaDeal(opts, index)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "replay arena deal %d (seed %d): %s — shape %s, %d adversaries, %d sore-loser triggers, %d races\n\n",
		index, out.Seed, out.Spec.ID, out.Shape, out.Adversaries, out.SoreLosers, out.FrontRuns)
	fmt.Fprintln(stdout, out.Spec.Matrix())
	r := out.Result
	fmt.Fprint(stdout, r.Summary())
	fmt.Fprintf(stdout, "  decision latency %.2fΔ in the arena\n", out.ArenaDelta)
	violations := len(r.SafetyViolations) + len(r.LivenessViolations)
	if out.Adversaries == 0 && out.Sequenceable && !r.AllCommitted {
		fmt.Fprintln(stdout, "  STRONG LIVENESS VIOLATION: all parties compliant yet the deal did not commit (Property 3)")
		violations++
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// replayCommand renders the exact command that replays one deal of this
// sweep, with a %d placeholder for the index; the report prints it next
// to each flagged violation so nothing needs reconstructing by hand.
func replayCommand(opts fleet.Options) string {
	g := opts.Gen
	cmd := fmt.Sprintf("dealsweep -seed %d -deals %d -protocol %s -adversary-rate %v -dos-rate %v -max-parties %d",
		g.Seed, opts.Deals, g.Protocol, g.AdversaryRate, g.DoSRate, g.MaxParties)
	if g.SerializeRounds {
		cmd += " -serialize-rounds"
	}
	if f := g.Fees; f != nil {
		cmd += fmt.Sprintf(" -feemarket -base-fee %d -tip-budget %d", f.BaseFee, f.TipBudget)
	}
	if a := opts.Arena; a != nil {
		cmd += fmt.Sprintf(" -arena -arena-deals %d -chains %d -volatility %v",
			a.DealsPerArena, a.Chains, a.Volatility)
		if !a.Baselines {
			cmd += " -no-baselines"
		}
		if a.Bundles {
			cmd += fmt.Sprintf(" -bundles -bundle-budget %d", a.BundleBudget)
		}
		if a.Hedge {
			cmd += fmt.Sprintf(" -hedge -hedge-collateral %v -premium-vol-window %d",
				a.HedgeCollateral, a.PremiumVolWindow)
		}
	}
	return cmd + " -replay %d"
}
