package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdeal/internal/deal"
	"xdeal/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite the golden report fixtures")

// scenarioFile writes a scenario body to a fresh file and returns its
// path.
func scenarioFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagValidationRejectsDegenerateSweeps: scenarios and flags that
// would silently produce a degenerate run (or a meaningless CI gate)
// must be rejected with exit 2 and a message naming the field, not
// defaulted away.
func TestFlagValidationRejectsDegenerateSweeps(t *testing.T) {
	cases := []struct {
		name     string
		scenario string // "" runs the default scenario
		args     []string
		want     string // substring of the stderr complaint
	}{
		{"negative-deals", "", []string{"-deals", "-1"}, "negative deal count -1"},
		{"negative-arena-deals", `{"Arena": {"DealsPerArena": -5}}`, nil, "negative deals-per-arena -5"},
		{"negative-hedge-collateral", `{"Arena": {"Hedge": true, "HedgeCollateral": -0.5}}`, nil, "hedge collateral -0.5 is negative"},
		{"hedge-without-arena", `{"Hedge": true}`, nil, `unknown field "Hedge"`},
		{"residual-budget-without-hedge", `{"Budgets": {"ResidualLoss": 5}}`, nil, "Budgets.ResidualLoss gate needs Arena.Hedge"},
		{"fee-budget-without-feemarket", `{"Budgets": {"FeePerCommit": 5}}`, nil, "Budgets.FeePerCommit gate needs Gen.Fees"},
		{"bundles-without-feemarket", `{"Arena": {"Bundles": true}}`, nil, "bundles require the fee market"},
		{"bundles-without-arena", `{"Gen": {"Fees": {}}, "Bundles": true}`, nil, `unknown field "Bundles"`},
		{"negative-bundle-budget", `{"Gen": {"Fees": {}}, "Arena": {"Bundles": true, "BundleBudget": -3}}`, nil, "BundleBudget"},
		{"defer-budget-without-bundles", `{"Budgets": {"BundleDefer": 0.5}}`, nil, "Budgets.BundleDefer gate needs Arena.Bundles"},
		{"negative-budget", `{"Budgets": {"P99Delta": -1}}`, nil, "Budgets.P99Delta is negative"},
		{"unknown-protocol", `{"Gen": {"Protocol": "htlc"}}`, nil, `unknown protocol "htlc"`},
		{"unknown-scenario-field", `{"Gen": {"Sed": 3}}`, nil, `unknown field "Sed"`},
		{"instruments-in-scenario", `{"Obs": {}}`, nil, `unknown field "Obs"`},
		{"trailing-scenario-data", `{"Deals": 3} {"Deals": 4}`, nil, "trailing data"},
		{"deal-with-population-fields", `{"Deals": 3, "Budgets": {}, "Deal": {}}`, nil, "drop the population fields Budgets, Deals"},
		{"deal-with-sweep-flag", `{"Deal": {}}`, []string{"-replay", "1"}, "-replay applies to a sweep"},
		{"unknown-behaviors-party", `{"Deal": {"Behaviors": {"mallory": {"SkipVoting": true}}}}`, nil, `party "mallory" in Deal.Behaviors is not in deal broker`},
		{"offline-without-until", `{"Deal": {"Behaviors": {"bob": {"OfflineFrom": 2000}}}}`, nil, `party "bob" in Deal.Behaviors: OfflineFrom 2000 needs a later OfflineUntil`},
		{"offline-until-before-from", `{"Deal": {"Behaviors": {"bob": {"OfflineFrom": 2000, "OfflineUntil": 1500}}}}`, nil, `party "bob" in Deal.Behaviors: OfflineFrom 2000 needs a later OfflineUntil`},
		{"negative-crash", `{"Deal": {"Behaviors": {"bob": {"CrashAt": -5}}}}`, nil, `party "bob" in Deal.Behaviors: CrashAt -5 is negative`},
		{"negative-offline", `{"Deal": {"Behaviors": {"bob": {"OfflineFrom": -5, "OfflineUntil": 100}}}}`, nil, `party "bob" in Deal.Behaviors: OfflineFrom -5 is negative`},
		{"negative-vote-delay", `{"Deal": {"Behaviors": {"bob": {"VoteDelay": -5}}}}`, nil, `party "bob" in Deal.Behaviors: VoteDelay -5 is negative`},
		{"negative-commit-then-abort", `{"Deal": {"Protocol": "cbc", "Behaviors": {"bob": {"CommitThenAbort": -5}}}}`, nil, `party "bob" in Deal.Behaviors: CommitThenAbort -5 is negative`},
		{"negative-sore-loser", `{"Deal": {"Behaviors": {"bob": {"SoreLoserThreshold": -0.1}}}}`, nil, `party "bob" in Deal.Behaviors: SoreLoserThreshold -0.1`},
		{"fee-bid-without-front-run", `{"Deal": {"Behaviors": {"bob": {"FeeBid": true}}}}`, nil, `party "bob" in Deal.Behaviors: FeeBid needs FrontRun`},
		{"fee-budget-without-fee-bid", `{"Deal": {"Behaviors": {"bob": {"FrontRun": true, "FeeBudget": 9}}}}`, nil, `party "bob" in Deal.Behaviors: FeeBudget 9 needs FeeBid`},
		{"bundle-budget-without-grief", `{"Deal": {"Behaviors": {"bob": {"BundleBudget": 9}}}}`, nil, `party "bob" in Deal.Behaviors: BundleBudget 9 needs BundleGrief`},
		{"unknown-censor-party", `{"Deal": {"Protocol": "cbc", "Censor": ["mallory"]}}`, nil, `party "mallory" in Deal.Censor is not in deal broker`},
		{"unknown-deal-shape", `{"Deal": {"Shape": "pentagon"}}`, nil, `unknown Deal.Shape "pentagon"`},
		{"unknown-deal-protocol", `{"Deal": {"Protocol": "htlc"}}`, nil, `unknown Deal.Protocol "htlc"`},
		{"invalid-deal-spec", `{"Deal": {"Spec": {"ID": "empty"}}}`, nil, "invalid Deal.Spec"},
		{"stray-argument", "", []string{"extra"}, "unexpected argument"},
		{"unknown-flag", "", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"explain-without-replay", "", []string{"-explain"}, "-explain needs -replay"},
		{"chrome-trace-without-replay", "", []string{"-chrome-trace", "t.json"}, "-chrome-trace needs -replay"},
		{"explain-with-arena", `{"Arena": {}}`, []string{"-replay", "3", "-explain"}, "needs an isolated replay"},
		{"chrome-trace-with-arena", `{"Arena": {}}`, []string{"-replay", "3", "-chrome-trace", "t.json"}, "needs an isolated replay"},
		{"out-of-range-isolated-replay", "", []string{"-deals", "20", "-seed", "5", "-replay", "5000"}, "-replay 5000 is outside the population [0, 20)"},
		{"out-of-range-arena-replay", `{"Arena": {}}`, []string{"-deals", "20", "-replay", "20"}, "-replay 20 is outside the population [0, 20)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.scenario != "" {
				args = append([]string{"-scenario", scenarioFile(t, tc.scenario)}, args...)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("run(%v) = %d, want exit 2\nstderr: %s", args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not explain the rejection (want %q)", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected run still produced a report:\n%s", stdout.String())
			}
		})
	}

	// A scenario that cannot be read is bad usage too.
	var stdout, stderr bytes.Buffer
	missing := filepath.Join(t.TempDir(), "missing.json")
	if code := run([]string{"-scenario", missing}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "missing.json") {
		t.Fatalf("unreadable scenario: exit %d, stderr %q; want exit 2 naming the file", code, stderr.String())
	}
}

// TestScenarioFilesDecodeStrictly: every committed scenario — the CI
// gates and examples under scenarios/, and the golden scenarios — decodes
// strictly, and every golden scenario has its expected report beside it.
func TestScenarioFilesDecodeStrictly(t *testing.T) {
	examples, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob("testdata/*.scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 || len(goldens) == 0 {
		t.Fatalf("found %d scenarios under scenarios/ and %d under testdata/", len(examples), len(goldens))
	}
	for _, path := range append(examples, goldens...) {
		if _, _, err := loadScenario(path); err != nil {
			t.Errorf("%v", err)
		}
	}
	for _, path := range goldens {
		if _, err := os.Stat(strings.TrimSuffix(path, ".scenario.json") + ".json"); err != nil {
			t.Errorf("golden scenario %s has no expected report: %v", path, err)
		}
	}
}

// goldenCheck runs testdata/<name>.scenario.json and compares its -json
// report byte-for-byte against testdata/<name>.json (regenerate with
// `go test -update`).
func goldenCheck(t *testing.T, name string) {
	t.Helper()
	args := []string{"-scenario", filepath.Join("testdata", name+".scenario.json"), "-json"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, want 0\nstderr: %s", args, code, stderr.String())
	}
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (run `go test ./cmd/dealsweep -update` to create it): %v", path, err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("-json report diverged from the committed schema fixture %s.\n"+
			"If the change is intentional, regenerate with `go test ./cmd/dealsweep -update` and review the diff.\n--- got ---\n%s\n--- want ---\n%s",
			path, stdout.String(), string(want))
	}
}

// TestGoldenJSONReportIsolated pins the -json report schema for the
// default isolated sweep: a refactor that renames, drops, or reorders a
// field breaks this byte-identical fixture instead of silently changing
// the CI-gated JSON contract.
func TestGoldenJSONReportIsolated(t *testing.T) { goldenCheck(t, "golden_isolated") }

// TestGoldenJSONReportHedgedArena pins the full arena schema — the
// interference, ordering-games, and hedging blocks together.
func TestGoldenJSONReportHedgedArena(t *testing.T) { goldenCheck(t, "golden_hedged_arena") }

// TestGoldenJSONReportBundleArena pins the bundled arena schema — the
// bundle-auctions block (win/defer rates, exclusion counters, deadline
// slack by bid decile) alongside the interference and ordering-games
// blocks it rides with.
func TestGoldenJSONReportBundleArena(t *testing.T) { goldenCheck(t, "golden_bundle_arena") }

// budgetGate runs an arena scenario twice, once under a tight budget
// that must trip (exit 1, naming the breach) and once under a generous
// one that must pass.
func budgetGate(t *testing.T, sweep, budget, tight, generous, breach string) {
	t.Helper()
	for _, tc := range []struct {
		limit string
		want  int
	}{{tight, 1}, {generous, 0}} {
		body := strings.TrimSuffix(sweep, "}") + fmt.Sprintf(`, "Budgets": {%q: %s}}`, budget, tc.limit)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scenario", scenarioFile(t, body), "-json"}, &stdout, &stderr)
		if code != tc.want {
			t.Fatalf("%s budget %s exited %d, want %d\nstderr: %s", budget, tc.limit, code, tc.want, stderr.String())
		}
		if tc.want == 1 && !strings.Contains(stderr.String(), breach) {
			t.Fatalf("no breach message: %s", stderr.String())
		}
	}
}

// TestBundleDeferBudgetGate: an absurdly tight defer-rate budget must
// trip the gate (exit 1) with a breach message; a generous one passes.
func TestBundleDeferBudgetGate(t *testing.T) {
	budgetGate(t, `{"Deals": 40, "Workers": 4,
		"Gen": {"Seed": 7, "AdversaryRate": 0.4, "Fees": {}},
		"Arena": {"DealsPerArena": 20, "Chains": 2, "Bundles": true}}`,
		"BundleDefer", "0.0001", "0.99", "bundle defer rate")
}

// TestReportIndependentOfWorkerCount: the golden runs again at a
// different pool size must produce the identical bytes (the fixture
// files double as cross-worker-count regression anchors).
func TestReportIndependentOfWorkerCount(t *testing.T) {
	render := func(workers string) string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scenario", "testdata/golden_hedged_arena.scenario.json",
			"-workers", workers, "-json"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, stderr.String())
		}
		return stdout.String()
	}
	if render("1") != render("8") {
		t.Fatal("report depends on the worker count")
	}
}

// TestResidualLossBudgetGate: an absurdly tight residual budget must
// trip the gate (exit 1) with a breach message; a generous one passes.
// The sweep hedges at 0.5× collateral, so payouts absorb only half of
// every stranded deposit and a residual is guaranteed wherever sore
// losers kill deals (seed 7 at 35% adversaries strands plenty).
func TestResidualLossBudgetGate(t *testing.T) {
	budgetGate(t, `{"Deals": 60, "Workers": 4,
		"Gen": {"Seed": 7, "AdversaryRate": 0.35, "Fees": {}},
		"Arena": {"DealsPerArena": 20, "Chains": 3, "Volatility": 0.05, "Hedge": true, "HedgeCollateral": 0.5}}`,
		"ResidualLoss", "0.5", "1e12", "residual sore-loser loss")
}

// TestMetricsSnapshotFiles: -metrics-json and -metrics-csv write
// non-empty registry snapshots, and the JSON one carries the core
// chain counters the sweep promises (blocks sealed, mempool
// high-water, queue delays) plus the fleet totals.
func TestMetricsSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "metrics.json")
	csvPath := filepath.Join(dir, "metrics.csv")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-workers", "4", "-json",
		"-metrics-json", jsonPath, "-metrics-csv", csvPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("metrics JSON not written: %v", err)
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v\n%s", err, raw)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("metrics snapshot is empty")
	}
	have := make(map[string]string)
	for _, m := range snap.Metrics {
		have[m.Name] = m.Kind
	}
	for name, kind := range map[string]string{
		"chain.blocks_sealed":        "counter",
		"chain.mempool_high":         "gauge",
		"chain.tx_queue_delay_ticks": "histogram",
		"fleet.deals_run":            "counter",
	} {
		if have[name] != kind {
			t.Fatalf("metric %s: kind %q, want %q (snapshot: %s)", name, have[name], kind, raw)
		}
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("metrics CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(csv), "name,kind,count,value,high,sum,overflow,buckets\n") {
		t.Fatalf("CSV header missing:\n%s", csv)
	}
	if !strings.Contains(string(csv), "chain.blocks_sealed,counter") {
		t.Fatalf("CSV lacks chain.blocks_sealed row:\n%s", csv)
	}
}

// TestFlightRecordOnBudgetBreach: a failing sweep with -flight-record
// dumps a valid JSONL evidence file — a config event plus the breach —
// while a clean sweep leaves no file behind.
func TestFlightRecordOnBudgetBreach(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.jsonl")
	var stdout, stderr bytes.Buffer

	// An absurdly tight latency budget forces the failure path.
	tight := scenarioFile(t, `{"Deals": 20, "Workers": 4, "Gen": {"Seed": 5}, "Budgets": {"P99Delta": 0.0001}}`)
	code := run([]string{"-scenario", tight, "-json", "-flight-record", path}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("tight budget exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "flight record") {
		t.Fatalf("stderr does not announce the flight record: %s", stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight record not written: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("flight record too short (%d lines):\n%s", len(lines), raw)
	}
	kinds := make(map[string]int)
	var lastSeq uint64
	for i, line := range lines {
		var ev struct {
			Seq    uint64 `json:"seq"`
			At     int64  `json:"at"`
			Source string `json:"source"`
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if i > 0 && ev.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing at line %d: %d after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds[ev.Kind]++
	}
	if kinds["config"] == 0 {
		t.Fatalf("no config event in flight record: %v", kinds)
	}
	if kinds["budget-breach"] == 0 {
		t.Fatalf("no budget-breach event in flight record: %v", kinds)
	}

	// A clean run must not leave an evidence file.
	clean := filepath.Join(dir, "clean.jsonl")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-deals", "20", "-seed", "5", "-json",
		"-flight-record", clean}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean run exited %d\nstderr: %s", code, stderr.String())
	}
	if _, err := os.Stat(clean); !os.IsNotExist(err) {
		t.Fatalf("clean sweep wrote a flight record anyway (err=%v)", err)
	}
}

// TestProfilingFlagsWriteProfiles: -cpuprofile/-memprofile/-mutexprofile
// each produce a non-empty pprof file without disturbing the run.
func TestProfilingFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	mutex := filepath.Join(dir, "mutex.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-workers", "4", "-json",
		"-cpuprofile", cpu, "-memprofile", mem, "-mutexprofile", mutex}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem, mutex} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestObsFlagsDoNotChangeReport: the same sweep with every
// observability flag on must render the identical report bytes as the
// bare sweep — the instruments are passive by contract.
func TestObsFlagsDoNotChangeReport(t *testing.T) {
	dir := t.TempDir()
	render := func(extra ...string) string {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-scenario", "testdata/golden_hedged_arena.scenario.json", "-json"}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	bare := render()
	instrumented := render(
		"-metrics-json", filepath.Join(dir, "m.json"),
		"-metrics-csv", filepath.Join(dir, "m.csv"),
		"-flight-record", filepath.Join(dir, "f.jsonl"),
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"),
		"-mutexprofile", filepath.Join(dir, "mutex.pprof"))
	if bare != instrumented {
		t.Fatal("observability flags changed the report output")
	}
}

// TestMetricsSnapshotIndependentOfWorkerCount: the merged registry
// snapshot must be byte-identical at any pool size — shard merges are
// commutative and the snapshot is name-sorted.
func TestMetricsSnapshotIndependentOfWorkerCount(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(workers string) string {
		path := filepath.Join(dir, "m"+workers+".json")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scenario", "testdata/golden_bundle_arena.scenario.json",
			"-workers", workers, "-json", "-metrics-json", path}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, stderr.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if snapshot("1") != snapshot("8") {
		t.Fatal("metrics snapshot depends on the worker count")
	}
}

// TestReplayExplainPrintsCriticalPath: -replay -explain appends the
// annotated causal timeline and the latency-attribution table to the
// replay output, and the attribution shares sum to 100%.
func TestReplayExplainPrintsCriticalPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-replay", "3", "-explain"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"critical path (",
		"latency attribution (decision latency",
		"protocol-wait",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output lacks %q:\n%s", want, out)
		}
	}
}

// TestReplayChromeTraceWritesValidJSON: -replay -chrome-trace writes a
// parseable Chrome trace-event file with metadata, span, and flow
// events, and announces it on stderr.
func TestReplayChromeTraceWritesValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deal.trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-deals", "20", "-seed", "5", "-replay", "3", "-chrome-trace", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "chrome trace") {
		t.Fatalf("stderr does not announce the chrome trace: %s", stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("chrome trace not written: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, raw)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	kinds := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		kinds[ev.Ph]++
	}
	for _, ph := range []string{"M", "X", "s", "f"} {
		if kinds[ph] == 0 {
			t.Fatalf("chrome trace has no %q events (got %v)", ph, kinds)
		}
	}
	if kinds["s"] != kinds["f"] {
		t.Fatalf("unbalanced flow events: %d starts, %d finishes", kinds["s"], kinds["f"])
	}
}

// TestWriteViolationTrace: a failed sweep's evidence bundle includes
// the first flagged deal's causal trace next to the flight record. The
// protocols are sound, so the report is injected rather than produced
// by real flags; the traced deal itself replays for real.
func TestWriteViolationTrace(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.jsonl")
	gen := fleet.GenOptions{Seed: 5}
	rep := &fleet.Report{Violations: []fleet.Violation{{Index: 3, Seed: 5, Property: "safety (P1)"}}}
	var stderr bytes.Buffer
	writeViolationTrace(&stderr, gen, rep, flight)
	if !strings.Contains(stderr.String(), "causal trace of flagged deal 3") {
		t.Fatalf("stderr does not announce the violation trace: %s", stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "flight-deal3.trace.json"))
	if err != nil {
		t.Fatalf("violation trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("violation trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("violation trace has no events")
	}

	// Without a flight record there is nowhere to put the evidence.
	var quiet bytes.Buffer
	writeViolationTrace(&quiet, gen, rep, "")
	if quiet.Len() != 0 {
		t.Fatalf("violation trace written without a flight record: %s", quiet.String())
	}
}

// TestSerializeRoundsFlagRoundTrips: the replay line a sweep prints next
// to a flagged deal, run as given, reproduces that deal's record. The
// round-gating ablation travels in the scenario file, so the replay runs
// under it too: serialized, seed 3 flags deal 41 (a DoS outage longer
// than Δ breaks the timelock's synchrony assumption).
func TestSerializeRoundsFlagRoundTrips(t *testing.T) {
	path := scenarioFile(t, `{"Deals": 42, "Gen": {"Seed": 3, "SerializeRounds": true}}`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", path, "-json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("sweep exited %d, want 1 (a flagged deal)\nstderr: %s", code, stderr.String())
	}
	var rep fleet.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("sweep flagged %d deals, want 1: %+v", len(rep.Violations), rep.Violations)
	}
	flagged := rep.Violations[0]

	stdout.Reset()
	run([]string{"-scenario", path}, &stdout, &stderr)
	var line string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if cmd, ok := strings.CutPrefix(strings.TrimSpace(l), "replay: "); ok {
			line = cmd
		}
	}
	want := fmt.Sprintf("dealsweep -scenario %s -seed 3 -deals 42 -replay %d", path, flagged.Index)
	if line != want {
		t.Fatalf("replay line %q, want %q", line, want)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(strings.Fields(line)[1:], &stdout, &stderr); code != 1 {
		t.Fatalf("%s exited %d, want 1\nstderr: %s", line, code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		fmt.Sprintf("replay deal %d (seed %d): %s", flagged.Index, flagged.Seed, flagged.SpecID),
		"protocol " + flagged.Protocol,
		flagged.Detail,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("replay output lacks %q:\n%s", want, out)
		}
	}
}

// TestOneDealExitContract: a Deal scenario prints the deal's matrix,
// summary, phases and gas, and exits 0 on a clean run and 1 when the
// run violates a property; -trace and -explain extend the output.
func TestOneDealExitContract(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenario", "../../scenarios/broker-bob-skips-voting.json", "-trace", "-explain"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"deal broker (3 parties, 2 escrow contracts, 4 transfers)",
		"--- trace ---",
		"party bob        DEVIATING",
		"phases (Δ=1000):",
		"gas: total=",
		"critical path (",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}

	// A timelock ring whose Δ is shorter than the network's delays
	// breaks the synchrony the protocol assumes, and a compliant party
	// loses assets: the run exits 1.
	spec, err := deal.MarshalJSONSpec(deal.RingSpec(4, 40, 10))
	if err != nil {
		t.Fatal(err)
	}
	path := scenarioFile(t, fmt.Sprintf(`{"Deal": {"Spec": %s, "Protocol": "timelock", "Seed": 1}}`, spec))
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-scenario", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("synchrony-broken ring exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Property 1") {
		t.Fatalf("no Property 1 violation in the output:\n%s", stdout.String())
	}

	// -seed 2 runs the deal exactly as a scenario with Seed 2 does.
	render := func(args ...string) string {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) exited %d\nstderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	ring := "../../scenarios/ring5-cbc.json"
	seed2 := scenarioFile(t, `{"Deal": {"Shape": "ring", "N": 5, "Protocol": "cbc", "F": 2, "Seed": 2}}`)
	if overridden := render("-scenario", ring, "-seed", "2"); overridden != render("-scenario", seed2) || overridden == render("-scenario", ring) {
		t.Fatal("-seed 2 does not run the deal as Seed 2 does")
	}
}
