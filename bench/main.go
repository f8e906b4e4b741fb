// Command bench is the repository's benchmark: one invocation runs one
// seeded workload as a closed loop with one client and reports the
// end-to-end metrics (untraced fleet.Sweep passes), the per-layer
// metrics (one traced pass plus layer probes), or both. See README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"xdeal/internal/fleet"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

const (
	// passSeconds is what one pass of a workload is sized to on the
	// reference host; -seconds buys seconds/passSeconds timed passes.
	passSeconds = 8
	// warmupDeals is the set-up's warm-up population, and the prefix of
	// the traced pass that is checked against it.
	warmupDeals = 256
	// setupRuns is how many times set-up is repeated and timed.
	setupRuns = 3
)

// config is one invocation.
type config struct {
	workload workload
	seed     uint64
	deals    int
	passes   int
	endToEnd bool // run the untraced timed passes
	perLayer bool // run the traced pass and the probes
	setups   int
	outDir   string // "" writes no files
}

// host tells results from different machines apart; SigVerifyUs is the
// calibration figure to normalise host-time metrics by.
type host struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	SigVerifyUs float64 `json:"sig_verify_us"`
}

// document is everything one invocation measured.
type document struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Deals    int    `json:"deals"`
	Passes   int    `json:"passes"`
	Host     host   `json:"host"`
	// ReportSHA256 digests Report.WriteJSON of each timed pass (of the
	// reference pass in a per-layer-only run); equal seeds give equal
	// digests.
	ReportSHA256 []string          `json:"report_sha256"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`

	attempted int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run (required; see README.md)")
		seed    = flag.Uint64("seed", 7, "master seed of the population")
		seconds = flag.Int("seconds", 3*passSeconds, "measuring time; buys seconds/8 timed passes, at least one")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
		deals   = flag.Int("deals", 0, "override the workload's population size (smoke tests)")
		out     = flag.String("out", "bench/out", "directory for the JSON document and the spans")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || flag.NArg() > 0 || *trace < -1 || *trace > 1 || *deals < 0 {
		fmt.Fprintf(os.Stderr, "usage: bench -workload <name> [-seed n] [-seconds s] [-trace 0|1] | bench compare <a> <b>\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %s\n", w.Name)
		}
		os.Exit(2)
	}
	cfg := config{
		workload: w, seed: *seed, deals: w.Deals,
		passes:   max(1, *seconds/passSeconds),
		endToEnd: *trace != 1, perLayer: *trace != 0,
		setups: setupRuns, outDir: *out,
	}
	if *deals > 0 {
		cfg.deals = *deals
	}
	doc, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	fmt.Println(doc.resultLine())
}

// run executes one invocation: set-up, then the phases cfg asks for.
// Any correctness failure is an error and no metrics are reported.
func run(cfg config) (*document, error) {
	opts := cfg.workload.options(cfg.seed, cfg.deals)
	doc := &document{Workload: cfg.workload.Name, Seed: cfg.seed, Deals: cfg.deals, Passes: cfg.passes}

	var warm *warmup
	setupSeconds := make([]float64, cfg.setups)
	for i := range setupSeconds {
		t := time.Now()
		w, err := setup(opts)
		if err != nil {
			return nil, err
		}
		setupSeconds[i] = time.Since(t).Seconds()
		if warm != nil && !slices.Equal(w.outcomes, warm.outcomes) {
			return nil, fmt.Errorf("set-up %d: the warm-up deals ended differently than in set-up 0: the simulation is not deterministic", i)
		}
		warm = w
	}
	doc.Host = hostInfo(warm.verifyNs / 1e3)

	if cfg.endToEnd {
		e2e, err := endToEndPhase(cfg, opts, doc)
		if err != nil {
			return nil, err
		}
		e2e.setSamples("setup_s", setupSeconds)
		doc.EndToEnd = e2e.vals
	}
	if cfg.perLayer {
		layers, err := perLayerPhase(cfg, opts, warm, doc)
		if err != nil {
			return nil, err
		}
		doc.PerLayer = layers.vals
	}
	if cfg.outDir != "" {
		if err := doc.write(cfg); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// outcome is the per-deal fingerprint runs of one deal are compared on.
type outcome struct {
	Committed, Aborted bool
	Gas                uint64
	EndedAt            int64
}

// warmup is what set-up leaves behind: the host calibration figure and
// the warm-up deals' outcomes — deals 0..n-1 of an isolated workload,
// the first deal of each warmed arena of an arena workload — for the
// next set-up and the traced pass to be checked against.
type warmup struct {
	gen      *fleet.Generator
	verifyNs float64
	outcomes []outcome
}

// setup is everything between process start and the first timed pass:
// generator validation, the host calibration probe, and a warm-up of
// the first warmupDeals deals through the public entry points.
func setup(opts fleet.Options) (*warmup, error) {
	gen, err := fleet.NewGenerator(opts.Gen)
	if err != nil {
		return nil, err
	}
	w := &warmup{gen: gen}
	_, w.verifyNs = probeSig()
	n := min(warmupDeals, opts.Deals)
	if opts.Arena == nil {
		for _, r := range fleet.RunJobs(gen.Jobs(n), 1) {
			w.outcomes = append(w.outcomes, outcome{r.Committed, r.Aborted, r.Gas, r.EndedAt})
		}
		return w, nil
	}
	per := opts.Arena.DealsPerArena
	for a := 0; a < max(1, n/per); a++ {
		out, err := fleet.ReplayArenaDeal(opts, a*per)
		if err != nil {
			return nil, err
		}
		w.outcomes = append(w.outcomes, arenaOutcome(out))
	}
	return w, nil
}

func hostInfo(sigVerifyUs float64) host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), CPUModel: "unknown", SigVerifyUs: sigVerifyUs,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// pass is one untraced fleet.Sweep over the whole population.
type pass struct {
	seconds            float64
	allocBytes, allocs uint64
	report             *fleet.Report
	sha                string
	flagged            int
}

// sweepPass times one fleet.Sweep, digests its report and applies the
// report-level correctness gate.
func sweepPass(opts fleet.Options) (*pass, error) {
	runtime.GC()
	before := obs.ReadMemStats()
	t := time.Now()
	rep, err := fleet.Sweep(opts)
	seconds := time.Since(t).Seconds()
	after := obs.ReadMemStats()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	p := &pass{
		seconds:    seconds,
		allocBytes: after.TotalAllocBytes - before.TotalAllocBytes,
		allocs:     after.Mallocs - before.Mallocs,
		report:     rep,
		sha:        hex.EncodeToString(sum[:]),
	}
	if rep.Total.Runs != opts.Deals || rep.Total.Errored != 0 {
		return nil, fmt.Errorf("sweep ran %d of %d deals, %d errored", rep.Total.Runs, opts.Deals, rep.Total.Errored)
	}
	if rep.ViolationsTruncated > 0 {
		return nil, fmt.Errorf("sweep flagged more violations than the report holds (%d truncated)", rep.ViolationsTruncated)
	}
	// A Property 1–3 flag is tolerated only with the engine's annotation
	// that a DoS outage broke the Δ-synchrony the paper assumes (§5).
	deals := make(map[int]bool)
	for _, v := range rep.Violations {
		if !strings.Contains(v.Detail, "synchrony-broken") {
			return nil, fmt.Errorf("deal %d (seed %d) violates %s: %s", v.Index, v.Seed, v.Property, v.Detail)
		}
		deals[v.Index] = true
	}
	p.flagged = len(deals)
	return p, nil
}

// passSeed is the master seed of timed pass k: the run's own seed
// first, then seeds derived from it, so that a run measures passes
// distinct populations rather than one population passes times.
func passSeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return sim.Mix64(seed ^ uint64(k)*0x9e3779b97f4a7c15)
}

// endToEndPhase runs the untraced timed passes, each a fleet.Sweep of
// the workload's size over its own seeded population, and reports every
// metric as the median pass.
func endToEndPhase(cfg config, opts fleet.Options, doc *document) (*metricSet, error) {
	samples := make(map[string][]float64)
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	n := float64(cfg.deals)
	for k := 0; k < cfg.passes; k++ {
		opts.Gen.Seed = passSeed(cfg.seed, k)
		p, err := sweepPass(opts)
		if err != nil {
			return nil, fmt.Errorf("pass %d (seed %d): %w", k, opts.Gen.Seed, err)
		}
		doc.ReportSHA256 = append(doc.ReportSHA256, p.sha)
		doc.attempted += cfg.deals
		add("deals_per_sec", n/p.seconds)
		add("alloc_bytes_per_deal", float64(p.allocBytes)/n)
		add("mallocs_per_deal", float64(p.allocs)/n)
		add("decision_latency_p50_delta", p.report.DeltaTime.P50)
		add("decision_latency_p99_delta", p.report.DeltaTime.P99)
		add("gas_per_deal_p50", p.report.Gas.P50)
		add("gas_per_deal_mean", p.report.Gas.Mean)
		add("commit_rate", p.report.Total.CommitRate())
	}
	m := newMetricSet(endToEnd)
	for name, v := range samples {
		m.setSamples(name, v)
	}
	return m, nil
}

// perLayerPhase runs one untraced reference pass (with the sweep's own
// stage timer attached), the traced pass, and the layer probes.
func perLayerPhase(cfg config, opts fleet.Options, warm *warmup, doc *document) (*metricSet, error) {
	ref := opts
	stages := obs.NewStageTimer()
	ref.Obs = &fleet.ObsOptions{Stages: stages}
	p, err := sweepPass(ref)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	if len(doc.ReportSHA256) == 0 {
		doc.ReportSHA256 = []string{p.sha}
	} else if doc.ReportSHA256[0] != p.sha {
		return nil, fmt.Errorf("reference pass: report sha256 %s differs from timed pass 0's %s", p.sha, doc.ReportSHA256[0])
	}
	doc.attempted += cfg.deals

	runtime.GC()
	var t *traced
	if opts.Arena == nil {
		t, err = tracedIsolated(warm.gen, cfg.deals, warm.outcomes)
	} else {
		t, err = tracedArenas(warm.gen, opts, warm.outcomes)
	}
	if err != nil {
		return nil, err
	}
	doc.attempted += cfg.deals
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := t.rec.writeJSONL(filepath.Join(cfg.outDir, cfg.workload.Name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}

	m := newMetricSet(perLayer)
	n := float64(cfg.deals)
	usPerDeal := func(spanName string) float64 { return sum(t.rec.durations(spanName)) * 1e6 / n }

	m.set("fleet.generate_us_per_deal", usPerDeal("fleet.generate"))
	m.set("fleet.aggregate_us_per_deal", stages.Seconds("aggregate")*1e6/n)
	m.set("fleet.flagged_deals", float64(p.flagged))
	// wall is the traced pass's time in the layers, per deal.
	var wall float64
	if opts.Arena == nil {
		deals := t.rec.durations("deal")
		wall = sum(deals) / n
		m.set("engine.build_us_per_deal", usPerDeal("engine.build"))
		m.set("engine.simulate_us_per_deal", usPerDeal("engine.simulate"))
		m.set("engine.evaluate_us_per_deal", usPerDeal("engine.evaluate"))
		m.set("engine.deal_wall_p50_us", percentile(deals, 0.50)*1e6)
		m.set("engine.deal_wall_p99_us", percentile(deals, 0.99)*1e6)
		m.set("sim.events_per_deal", float64(t.events)/n)
		m.set("sim.ns_per_event", sum(t.rec.durations("engine.simulate"))*1e9/float64(t.simEvents))
		m.set("cbc.blocks_per_deal", float64(t.cbcBlocks)/n)
		m.set("chain.failed_tx_share", float64(t.failedReceipts)/float64(t.receipts))
	} else {
		wall = sum(t.rec.durations("arena")) / n
		m.set("arena.run_ms_p50", median(t.rec.durations("arena.run"))*1e3)
	}
	m.set("gas.sigverify_per_deal", float64(t.sigVerify)/n)
	m.set("gas.write_per_deal", float64(t.writes)/n)
	m.set("gas.per_deal_p99", p.report.Gas.P99)
	m.set("party.parties_per_deal", float64(t.parties)/n)
	m.set("escrow.escrows_per_deal", float64(t.escrows)/n)

	// Registry counts: chains on every workload; fee, bundle and hedge
	// ledgers where the workload has them.
	reg := make(map[string]obs.Metric)
	for _, rm := range t.reg.Snapshot().Metrics {
		reg[rm.Name] = rm
	}
	count := func(name string) float64 { return float64(reg[name].Count) }
	m.set("chain.blocks_per_deal", count("chain.blocks_sealed")/n)
	m.set("chain.txs_per_deal", count("chain.txs_included")/n)
	m.set("chain.txs_per_block", count("chain.txs_included")/count("chain.blocks_sealed"))
	m.set("chain.mempool_high", float64(reg["chain.mempool_high"].High))
	m.set("chain.tx_queue_delay_mean_ticks", reg["chain.tx_queue_delay_ticks"].Sum/count("chain.tx_queue_delay_ticks"))
	m.set("feemarket.burned_per_deal", count("feemarket.burned")/n)
	m.set("hedge.binds_per_deal", count("hedge.binds")/n)
	if entered := count("arena.bundle_wins") + count("arena.bundle_defers"); entered > 0 {
		m.set("bundle.defer_rate", count("arena.bundle_defers")/entered)
	}
	if attempts := count("arena.exclusion_attempts"); attempts > 0 {
		m.set("bundle.exclusion_success_rate", count("arena.exclusion_successes")/attempts)
	}

	// Probes: each layer's public functions called directly.
	signNs, verifyNs := probeSig()
	m.set("sig.sign_us", signNs/1e3)
	m.set("sig.verify_us", verifyNs/1e3)
	m.set("sig.est_share", float64(t.sigVerify)/n*verifyNs/1e9/wall)
	pathVerifyNs, pathForwardNs, err := probePathSig()
	if err != nil {
		return nil, err
	}
	m.set("sig.pathsig_verify_us_k4", pathVerifyNs/1e3)
	m.set("sig.pathsig_forward_us", pathForwardNs/1e3)
	makeNs, certVerifyNs, encodeNs, err := probeBFT()
	if err != nil {
		return nil, err
	}
	m.set("bft.make_certificate_us_f2", makeNs/1e3)
	m.set("bft.certificate_verify_us_f2", certVerifyNs/1e3)
	m.set("bft.committee_encode_ns_f2", encodeNs)
	m.set("sim.schedule_fire_ns", probeScheduler())
	for _, b := range []struct {
		name          string
		fees, bundles bool
	}{
		{"chain.fifo_tx_us", false, false},
		{"chain.tip_ordered_tx_us", true, false},
		{"chain.auction_tx_us", true, true},
	} {
		ns, err := probeBuilder(b.fees, b.bundles)
		if err != nil {
			return nil, err
		}
		m.set(b.name, ns/1e3)
	}
	viewNs, queryNs, attributeNs, err := probeWorld()
	if err != nil {
		return nil, err
	}
	m.set("escrow.viewof_us", viewNs/1e3)
	m.set("chain.query_us", queryNs/1e3)
	m.set("trace.attribute_us", attributeNs/1e3)

	// The traced loop does not aggregate, so the reference pass's
	// aggregate stage is added back before comparing throughputs.
	tracedRate := n / (wall*n + stages.Seconds("aggregate"))
	m.set("trace.overhead_share", 1-tracedRate/(n/p.seconds))
	return m, nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// write stores the document beside the spans: <workload>.json, or
// <workload>.traced.json for a per-layer-only run, so that one does not
// overwrite the other's end-to-end block.
func (d *document) write(cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := cfg.workload.Name + ".json"
	if !cfg.endToEnd {
		name = cfg.workload.Name + ".traced.json"
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(b, '\n'), 0o644)
}

// resultLine is the last line of standard output: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one
// (both tables when both phases ran). Every metric of a table is
// printed; one the public surface could not supply on this workload is
// printed as 0 here and left out of the written document.
func (d *document) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	fill := func(defs []metricDef, vals map[string]metric) {
		for _, def := range defs {
			metrics[def.Name] = value{vals[def.Name].Value, def.Unit}
		}
	}
	if d.EndToEnd != nil {
		fill(endToEnd, d.EndToEnd)
	}
	if d.PerLayer != nil {
		fill(perLayer, d.PerLayer)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, d.attempted, 0, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
