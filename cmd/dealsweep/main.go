// Command dealsweep runs one scenario — a fleet of randomized
// cross-chain deals, or a single deal — and reports it: for a fleet,
// commit/abort rates by shape and protocol, gas and decision-latency
// percentiles, and every safety/liveness property violation flagged
// with the command that replays it; for one deal, its matrix and
// settlement summary.
//
//	dealsweep -deals 1000 -workers 8
//	dealsweep -scenario scenarios/ci-arena.json
//	dealsweep -scenario scenarios/broker-timelock.json -trace -explain
//	dealsweep -seed 7 -replay 131        # re-run flagged deal 131 in full
//
// A scenario file is the JSON encoding of fleet.Options, decoded
// strictly (an unknown field is an error): Deals, Workers, Gen (Seed,
// Protocol, AdversaryRate, DoSRate, MaxParties, SerializeRounds, and
// Fees, which turns on per-chain fee markets) and Arena (shared worlds
// in which deals contend for chains: DealsPerArena, Chains, Volatility,
// MaxBlockTxs, Baselines, and the Bundles and Hedge modes with their
// budgets). The library documents each field. An omitted field keeps the
// default scenario's value — 100 deals, seed 1, mixed protocols,
// adversary rate 0.3, DoS rate 0.15, up to 6 parties — and inside
// Gen.Fees and Arena the library resolves zero values to its defaults,
// which the report echoes. Two more blocks belong to this command:
//
//   - Budgets turn the sweep into a CI gate. P99Delta and P99Gas bound
//     the population's p99 decision latency (in Δ) and per-deal gas,
//     FeePerCommit the fee spend per committed deal (needs Gen.Fees),
//     ResidualLoss the sore-loser loss a hedged sweep leaves unabsorbed
//     (needs Arena.Hedge), and BundleDefer the bundle defer rate (needs
//     Arena.Bundles). 0 is off; a breach exits 1.
//   - Deal runs one deal instead of a population: a named Shape (broker,
//     ring, swap, auction or dense, with N parties and M escrows) or an
//     inline Spec, under Protocol (timelock or cbc) with CBC fault
//     tolerance F and Seed, per-party deviations in Behaviors (party
//     name → party.Behavior) and the parties whose CBC votes validators
//     drop in Censor. A Deal scenario has no population fields.
//
// The flags only select and override: -seed and -deals override the
// scenario's, -workers sizes the pool, -replay I re-runs deal I of the
// sweep in full, and the rest name outputs. The report depends only on
// the scenario and those overrides — never on the worker count — and a
// violation flagged at index i replays with the command the report
// prints next to it. -trace, -explain and -chrome-trace show one deal's
// run: a Deal scenario's, or an isolated replay's.
//
// Exit status: 0 for a clean run within budget, 1 when a property
// violation, run error or budget breach was observed, 2 for bad usage
// or a bad scenario.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/obs"
	"xdeal/internal/party"
	"xdeal/internal/sim"
	"xdeal/internal/trace"
)

// scenario is one run as a file: a fleet sweep and the budgets that
// gate its report, or, with Deal set, a single deal.
type scenario struct {
	fleet.Options
	Budgets budgets
	// Deal is decoded on its own, onto oneDeal's defaults.
	Deal json.RawMessage
}

// budgets fail a sweep whose report exceeds them; 0 is off.
type budgets struct {
	P99Delta, P99Gas, FeePerCommit, ResidualLoss, BundleDefer float64
}

// oneDeal is a scenario's single deal and the engine options it runs
// under.
type oneDeal struct {
	Shape     string          // broker | ring | swap | auction | dense
	N, M      int             // parties (ring, dense) and escrows (dense)
	Spec      json.RawMessage // an inline deal spec; overrides Shape
	Protocol  string          // timelock | cbc
	F         int             // CBC fault tolerance
	Seed      uint64
	Behaviors map[chain.Addr]party.Behavior
	Censor    []chain.Addr
}

// defaultScenario is what a scenario's omitted fields, or an omitted
// -scenario, mean.
func defaultScenario() scenario {
	return scenario{Options: fleet.Options{Deals: 100, Gen: fleet.GenOptions{
		Seed: 1, Protocol: "mixed", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6,
	}}}
}

// loadScenario reads and strictly decodes a scenario file ("" is the
// default scenario). The returned deal is non-nil for a Deal scenario.
func loadScenario(path string) (scenario, *oneDeal, error) {
	sc := defaultScenario()
	if path == "" {
		return sc, nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return sc, nil, err
	}
	if err := decodeStrict(raw, &sc); err != nil {
		return sc, nil, fmt.Errorf("%s: %w", path, err)
	}
	if sc.Deal == nil {
		return sc, nil, nil
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return sc, nil, fmt.Errorf("%s: %w", path, err)
	}
	var population []string
	for field := range top {
		if !strings.EqualFold(field, "Deal") {
			population = append(population, field)
		}
	}
	if len(population) > 0 {
		sort.Strings(population)
		return sc, nil, fmt.Errorf("%s: Deal runs one deal; drop the population fields %s", path, strings.Join(population, ", "))
	}
	d := &oneDeal{Shape: "broker", Protocol: "timelock", N: 4, M: 3, F: 1, Seed: 1}
	if err := decodeStrict(sc.Deal, d); err != nil {
		return sc, nil, fmt.Errorf("%s: Deal: %w", path, err)
	}
	return sc, d, nil
}

// decodeStrict decodes exactly one JSON value into v, rejecting unknown
// fields and trailing data.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the scenario")
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored so tests can drive flag parsing,
// validation, and report rendering in-process (the -json golden files
// depend on that).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dealsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)

	scenarioPath := fs.String("scenario", "", "JSON scenario file: fleet options plus Budgets, or one Deal (default: the default sweep)")
	seed := fs.Uint64("seed", 0, "override the scenario's seed (Gen.Seed, or Deal.Seed)")
	deals := fs.Int("deals", 0, "override the scenario's population size (Deals)")
	workers := fs.Int("workers", 0, "override the scenario's worker pool size (0 = one per CPU)")
	replayIndex := fs.Int("replay", -1, "re-run this deal index from the sweep in full detail")

	jsonOut := fs.Bool("json", false, "emit the sweep report as JSON instead of tables")
	showTrace := fs.Bool("trace", false, "print the chronological protocol trace of one deal or an isolated replay")
	explain := fs.Bool("explain", false, "print the critical path and latency attribution of one deal or an isolated replay")
	chromeTrace := fs.String("chrome-trace", "", "write the causal trace of one deal or an isolated replay as Chrome trace-event JSON to this path (opens in ui.perfetto.dev)")
	metricsJSON := fs.String("metrics-json", "", "write the sweep's metrics-registry snapshot (blocks sealed, mempool high-water, queue delays, fee/hedge ledgers) to this file as JSON")
	metricsCSV := fs.String("metrics-csv", "", "write the metrics-registry snapshot to this file as CSV")
	flightRecord := fs.String("flight-record", "", "write a JSONL flight-record evidence file to this path when the sweep fails (property violation, run error, or budget breach)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at sweep end")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile to this file at sweep end")

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
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sc, one, err := loadScenario(*scenarioPath)
	if err != nil {
		return fail("scenario: %v", err)
	}

	if one != nil {
		for _, name := range []string{"deals", "workers", "replay", "json", "metrics-json", "metrics-csv",
			"flight-record", "cpuprofile", "memprofile", "mutexprofile"} {
			if set[name] {
				return fail("-%s applies to a sweep; scenario %s runs one Deal", name, *scenarioPath)
			}
		}
		if set["seed"] {
			one.Seed = *seed
		}
		return runDeal(stdout, stderr, one, *showTrace, *explain, *chromeTrace)
	}

	if set["seed"] {
		sc.Gen.Seed = *seed
	}
	if set["deals"] {
		sc.Deals = *deals
	}
	if set["workers"] {
		sc.Workers = *workers
	}
	if err := sc.Budgets.check(sc.Options); err != nil {
		return fail("scenario: %v", err)
	}
	for _, name := range []string{"trace", "explain", "chrome-trace"} {
		if !set[name] {
			continue
		}
		if *replayIndex < 0 {
			return fail("-%s needs -replay or a Deal scenario (it shows one deal's run)", name)
		}
		if sc.Arena != nil {
			return fail("-%s needs an isolated replay (arena chains interleave many deals; drop Arena to trace one)", name)
		}
	}

	if *replayIndex >= 0 {
		if *replayIndex >= sc.Deals {
			return fail("-replay %d is outside the population [0, %d) of Deals", *replayIndex, sc.Deals)
		}
		if sc.Arena != nil {
			return replayArena(stdout, stderr, sc.Options, *replayIndex)
		}
		return replay(stdout, stderr, sc.Gen, *replayIndex, *showTrace, *explain, *chromeTrace)
	}
	opts := sc.Options
	replayCmd := replayCommand(*scenarioPath, opts)

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
				opts.Gen.Seed, opts.Deals, opts.Workers, opts.Arena != nil, replayCmd))
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
	rep.ReplayCommand = replayCmd

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
	b := sc.Budgets
	if b.P99Delta > 0 && rep.DeltaTime.P99 > b.P99Delta {
		breach("p99 decision latency %.2fΔ exceeds budget %.2fΔ", rep.DeltaTime.P99, b.P99Delta)
	}
	if b.P99Gas > 0 && rep.Gas.P99 > b.P99Gas {
		breach("p99 gas %.0f exceeds budget %.0f", rep.Gas.P99, b.P99Gas)
	}
	if b.FeePerCommit > 0 && rep.OrderingGames != nil &&
		rep.OrderingGames.FeePerCommit > b.FeePerCommit {
		breach("fee per committed deal %.1f exceeds budget %.1f",
			rep.OrderingGames.FeePerCommit, b.FeePerCommit)
	}
	if b.BundleDefer > 0 && rep.BundleAuctions != nil &&
		rep.BundleAuctions.DeferRate() > b.BundleDefer {
		breach("bundle defer rate %.3f exceeds budget %.3f (%d won / %d deferred)",
			rep.BundleAuctions.DeferRate(), b.BundleDefer,
			rep.BundleAuctions.Wins, rep.BundleAuctions.Defers)
	}
	if b.ResidualLoss > 0 && rep.Hedging != nil &&
		float64(rep.Hedging.ResidualSoreLoserLoss) > b.ResidualLoss {
		breach("residual sore-loser loss %d exceeds budget %g (gross %d, payouts %d)",
			rep.Hedging.ResidualSoreLoserLoss, b.ResidualLoss,
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
			if opts.Arena == nil {
				writeViolationTrace(stderr, opts.Gen, rep, *flightRecord)
			}
		}
		return 1
	}
	return 0
}

// check rejects a negative budget, and a budget on a report block the
// sweep does not produce: such a gate could never trip.
func (b budgets) check(opts fleet.Options) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"P99Delta", b.P99Delta}, {"P99Gas", b.P99Gas}, {"FeePerCommit", b.FeePerCommit},
		{"ResidualLoss", b.ResidualLoss}, {"BundleDefer", b.BundleDefer}} {
		if f.v < 0 {
			return fmt.Errorf("budget Budgets.%s is negative (%v); 0 turns a gate off", f.name, f.v)
		}
	}
	a := opts.Arena
	switch {
	case b.FeePerCommit > 0 && opts.Gen.Fees == nil:
		return errors.New("a Budgets.FeePerCommit gate needs Gen.Fees (without a fee market there is no fee to gate)")
	case b.ResidualLoss > 0 && (a == nil || !a.Hedge):
		return errors.New("a Budgets.ResidualLoss gate needs Arena.Hedge (only a hedged sweep reports residual loss)")
	case b.BundleDefer > 0 && (a == nil || !a.Bundles):
		return errors.New("a Budgets.BundleDefer gate needs Arena.Bundles (only bundle auctions defer)")
	}
	return nil
}

// writeViolationTrace dumps the first flagged deal's causal trace as
// Chrome trace-event JSON next to the flight record, so the evidence a
// failed sweep ships includes the deal's happens-before timeline, not
// just the violation text. Isolated sweeps only: the deal is a pure
// function of (generator options, index), so the re-run here is
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

// dealView is one finished deal run as the command prints it.
type dealView struct {
	header string // the first line: which deal this is
	spec   *deal.Spec
	world  *engine.World // nil for an arena replay, which cannot be explained
	log    *trace.Log    // the protocol trace, when -trace asked for it
	result *engine.Result
	notes  string // lines the mode adds after the summary
	p3     bool   // the run broke Property 3
}

// print writes the run — header, matrix, trace, summary, notes and
// critical path — and the Chrome trace file, and returns the exit
// status: 1 when the run violated a property, else 0. The views are
// post-hoc reads of retained state, so they never change the outcome.
func (v dealView) print(stdout, stderr io.Writer, explain bool, chromePath string) int {
	r := v.result
	fmt.Fprintf(stdout, "%s\n\n", v.header)
	fmt.Fprintln(stdout, v.spec.Matrix())
	if v.log != nil {
		fmt.Fprintln(stdout, "--- trace ---")
		if err := v.log.Fprint(stdout); err != nil {
			fmt.Fprintf(stderr, "dealsweep: trace: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprint(stdout, r.Summary())
	fmt.Fprint(stdout, v.notes)
	if explain {
		out, err := v.world.ExplainDeal(r)
		if err != nil {
			fmt.Fprintf(stderr, "dealsweep: explain: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s", out)
	}
	if chromePath != "" {
		spans := v.world.DealSpans(r)
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
	if v.p3 {
		fmt.Fprintln(stdout, "  STRONG LIVENESS VIOLATION: all parties compliant yet the deal did not commit (Property 3)")
		violations++
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// replay re-executes one generated deal of an isolated sweep in full
// detail; it is the debugging path for a violation the sweep flagged,
// and applies the sweep's Property 3 rule so that such a deal also
// fails its replay.
func replay(stdout, stderr io.Writer, gen fleet.GenOptions, index int, showTrace, explain bool, chromePath string) int {
	g, err := fleet.NewGenerator(gen)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: %v\n", err)
		return 2
	}
	job := g.Job(index)
	if showTrace {
		job.Opts.Trace = trace.New()
	}
	w, err := engine.Build(job.Spec, job.Opts)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: build: %v\n", err)
		return 1
	}
	r := w.Run()
	return dealView{
		header: fmt.Sprintf("replay deal %d (seed %d): %s — shape %s, protocol %s, %d adversaries, outage %v",
			job.Index, job.Seed, job.Spec.ID, job.Shape, job.Opts.Protocol, job.Adversaries, job.Outage),
		spec: job.Spec, world: w, log: job.Opts.Trace, result: r,
		p3: fleet.StrongLivenessViolated(job.Adversaries, job.Outage, job.Sequenceable, r.AllCommitted),
	}.print(stdout, stderr, explain, chromePath)
}

// replayArena re-runs the shared world containing the flagged deal and
// prints that deal's outcome — bit-identical to the sweep, since an
// arena is a pure function of (options, arena index).
func replayArena(stdout, stderr io.Writer, opts fleet.Options, index int) int {
	out, err := fleet.ReplayArenaDeal(opts, index)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: %v\n", err)
		return 2
	}
	return dealView{
		header: fmt.Sprintf("replay arena deal %d (seed %d): %s — shape %s, %d adversaries, %d sore-loser triggers, %d races",
			index, out.Seed, out.Spec.ID, out.Shape, out.Adversaries, out.SoreLosers, out.FrontRuns),
		spec: out.Spec, result: out.Result,
		notes: fmt.Sprintf("  decision latency %.2fΔ in the arena\n", out.ArenaDelta),
		p3:    fleet.StrongLivenessViolated(out.Adversaries, false, out.Sequenceable, out.Result.AllCommitted),
	}.print(stdout, stderr, false, "")
}

// runDeal runs a Deal scenario end to end. Its exit status counts only
// the run's safety and liveness violations: a hand-written deal makes
// no Property 3 premise.
func runDeal(stdout, stderr io.Writer, d *oneDeal, showTrace, explain bool, chromePath string) int {
	spec, opts, err := d.build()
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: scenario: %v\n", err)
		return 2
	}
	if showTrace {
		opts.Trace = trace.New()
	}
	w, err := engine.Build(spec, opts)
	if err != nil {
		fmt.Fprintf(stderr, "dealsweep: %v\n", err)
		return 1
	}
	r := w.Run()
	return dealView{
		header: fmt.Sprintf("deal %s (%d parties, %d escrow contracts, %d transfers)",
			spec.ID, len(spec.Parties), len(spec.Escrows()), len(spec.Transfers)),
		spec: spec, world: w, log: opts.Trace, result: r,
		notes: fmt.Sprintf("\nphases (Δ=%d): escrow end t=%d, transfers end t=%d, validation end t=%d, decision t=%d\n"+
			"gas: total=%d  escrow=%d  transfer=%d  commit=%d  abort=%d\n",
			spec.Delta, r.Phases.EscrowEnd, r.Phases.TransferEnd, r.Phases.ValidationEnd, r.Phases.DecisionEnd,
			r.Gas.Used(), r.Gas.UsedByLabel(party.LabelEscrow), r.Gas.UsedByLabel(party.LabelTransfer),
			r.Gas.UsedByLabel(party.LabelCommit), r.Gas.UsedByLabel(party.LabelAbort)),
	}.print(stdout, stderr, explain, chromePath)
}

// build resolves the deal's spec and engine options, rejecting an
// unknown shape or protocol and a deviant or censored party the deal
// does not have (the engine would silently ignore it).
func (d *oneDeal) build() (*deal.Spec, engine.Options, error) {
	opts := engine.Options{Seed: d.Seed, F: d.F}
	var spec *deal.Spec
	t0 := sim.Time(3000 + 500*d.N)
	switch {
	case d.Spec != nil:
		s, err := deal.UnmarshalJSONSpec(d.Spec)
		if err != nil {
			return nil, opts, fmt.Errorf("invalid Deal.Spec: %w", err)
		}
		spec = s
	case d.Shape == "broker":
		spec = deal.BrokerSpec(2000, 1000)
	case d.Shape == "ring":
		spec = deal.RingSpec(d.N, t0, 1000)
	case d.Shape == "swap":
		spec = deal.SwapSpec(2000, 1000)
	case d.Shape == "auction":
		spec = deal.AuctionSpec(2000, 1000, 120, 80)
	case d.Shape == "dense":
		spec = deal.DenseSpec(d.N, d.M, t0, 1000)
	default:
		return nil, opts, fmt.Errorf("unknown Deal.Shape %q (want broker, ring, swap, auction or dense)", d.Shape)
	}
	switch d.Protocol {
	case "timelock":
		opts.Protocol = party.ProtoTimelock
	case "cbc":
		opts.Protocol = party.ProtoCBC
	default:
		return nil, opts, fmt.Errorf("unknown Deal.Protocol %q (want timelock or cbc)", d.Protocol)
	}
	deviants := make([]chain.Addr, 0, len(d.Behaviors))
	for p := range d.Behaviors {
		deviants = append(deviants, p)
	}
	sort.Slice(deviants, func(i, j int) bool { return deviants[i] < deviants[j] })
	for _, p := range deviants {
		if !slices.Contains(spec.Parties, p) {
			return nil, opts, fmt.Errorf("party %q in Deal.Behaviors is not in deal %s", p, spec.ID)
		}
		if err := d.Behaviors[p].Validate(); err != nil {
			return nil, opts, fmt.Errorf("party %q in Deal.Behaviors: %v", p, err)
		}
	}
	opts.Behaviors = d.Behaviors
	if len(d.Censor) > 0 {
		opts.Censor = make(map[chain.Addr]bool, len(d.Censor))
	}
	for _, p := range d.Censor {
		if !slices.Contains(spec.Parties, p) {
			return nil, opts, fmt.Errorf("party %q in Deal.Censor is not in deal %s", p, spec.ID)
		}
		opts.Censor[p] = true
	}
	return spec, opts, nil
}

// replayCommand renders the command that replays one deal of this
// sweep, with a %d placeholder for the index; the report prints it next
// to each flagged violation so nothing needs reconstructing by hand.
func replayCommand(path string, opts fleet.Options) string {
	cmd := "dealsweep"
	if path != "" {
		cmd += " -scenario " + strings.ReplaceAll(path, "%", "%%")
	}
	return fmt.Sprintf("%s -seed %d -deals %d -replay %%d", cmd, opts.Gen.Seed, opts.Deals)
}
