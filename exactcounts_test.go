package xdeal_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/gas"
	"xdeal/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/exact_counts.json")

const exactCountsPath = "testdata/exact_counts.json"

// exactWorkloads are the benchmark's four option sets (bench/workloads.go)
// at seed 7 and a size tier-1 can afford: 128 deals per isolated
// workload, and 100 for the arena so it holds two 50-deal arenas and
// "mixed" covers both protocols. The benchmark runs no latency
// baselines, so a fifth, hedged arena with baselines holds the private
// worlds those re-runs build.
var exactWorkloads = []struct {
	name string
	opts fleet.Options
}{
	{"timelock-adversarial", fleet.Options{Deals: 128, Gen: fleet.GenOptions{
		Protocol: "timelock", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6,
	}}},
	{"cbc-adversarial", fleet.Options{Deals: 128, Gen: fleet.GenOptions{
		Protocol: "cbc", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6,
	}}},
	{"compliant-wide", fleet.Options{Deals: 128, Gen: fleet.GenOptions{
		Protocol: "mixed", MaxParties: 10,
	}}},
	{"arena-congested", fleet.Options{
		Deals: 100,
		Gen:   fleet.GenOptions{Protocol: "mixed", AdversaryRate: 0.3, Fees: &fleet.FeeOptions{}},
		Arena: &fleet.ArenaOptions{DealsPerArena: 50, Chains: 2, Bundles: true, Hedge: true},
	}},
	{"arena-hedged-baselines", fleet.Options{
		Deals: 48,
		Gen:   fleet.GenOptions{Protocol: "mixed", AdversaryRate: 0.3, Fees: &fleet.FeeOptions{}},
		Arena: &fleet.ArenaOptions{DealsPerArena: 24, Chains: 2, Hedge: true, Baselines: true},
	}},
}

// exactCounts is one workload's deterministic fingerprint: the report's
// digest and every seed-determined count the sweep exposes, by name.
type exactCounts struct {
	ReportSHA256 string                 `json:"report_sha256"`
	Counts       map[string]json.Number `json:"counts"`
}

// TestExactCounts is the exact-count gate: each benchmark workload, run
// small at a fixed seed, must reproduce its report digest, its metrics
// registry and (isolated workloads) its scheduler-step and gas-op totals
// bit for bit. A deliberate change to the simulated program re-pins the
// fixture with -update; any other drift names the counts that moved, and
// so the layer that moved them.
func TestExactCounts(t *testing.T) {
	got := make(map[string]exactCounts, len(exactWorkloads))
	for _, w := range exactWorkloads {
		got[w.name] = measureExactCounts(t, w.opts)
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactCountsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadExactCounts(t)
	for _, w := range exactWorkloads {
		checkExactCounts(t, w.name, want[w.name], got[w.name])
	}
}

// TestExactCountsIndependentOfProcessHistory runs the exact-count
// workloads in one process in order, then in reverse, then in order on
// four workers: each must reproduce its pinned digest and counts whatever
// the process ran before it, so no state kept across worlds — the key
// table, a worker's reused substrate, or any cache — reaches a report or
// a count. With four workers, which deal a worker's substrate ran before
// another varies from run to run, so a leak across resets shows here as
// flakiness.
func TestExactCountsIndependentOfProcessHistory(t *testing.T) {
	want := loadExactCounts(t)
	for _, pass := range []struct {
		name    string
		reverse bool
		workers int
	}{{"forward", false, 1}, {"reverse", true, 1}, {"workers-4", false, 4}} {
		for k := range exactWorkloads {
			w := exactWorkloads[k]
			if pass.reverse {
				w = exactWorkloads[len(exactWorkloads)-1-k]
			}
			checkExactCounts(t, pass.name+" "+w.name, want[w.name], measureExactCountsOn(t, w.opts, pass.workers))
		}
	}
}

// loadExactCounts reads the pinned fixture.
func loadExactCounts(t *testing.T) map[string]exactCounts {
	t.Helper()
	raw, err := os.ReadFile(exactCountsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]exactCounts
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", exactCountsPath, err)
	}
	return want
}

// checkExactCounts reports every count of the run named name that
// moved from want.
func checkExactCounts(t *testing.T, name string, want, got exactCounts) {
	t.Helper()
	if moved := diffExactCounts(want, got); len(moved) > 0 {
		t.Errorf("%s: %d exact counts moved:\n\t%s", name, len(moved), strings.Join(moved, "\n\t"))
	}
}

// measureExactCounts sweeps opts at seed 7 on one worker with a metrics
// registry attached and, for an isolated population, drives every deal
// again through Generator.Job, engine.Build and World.Run to total its
// scheduler steps and gas-op counts.
func measureExactCounts(t *testing.T, opts fleet.Options) exactCounts {
	t.Helper()
	return measureExactCountsOn(t, opts, 1)
}

// measureExactCountsOn is measureExactCounts with the sweep on workers
// workers.
func measureExactCountsOn(t *testing.T, opts fleet.Options, workers int) exactCounts {
	t.Helper()
	opts.Workers = workers
	opts.Gen.Seed = 7
	reg := obs.NewRegistry()
	opts.Obs = &fleet.ObsOptions{Metrics: reg}
	rep, err := fleet.Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256(buf.Bytes())
	out := exactCounts{ReportSHA256: hex.EncodeToString(digest[:]), Counts: make(map[string]json.Number)}
	setUint := func(name string, v uint64) { out.Counts[name] = json.Number(strconv.FormatUint(v, 10)) }
	for _, m := range reg.Snapshot().Metrics {
		key := m.Kind + ":" + m.Name
		switch m.Kind {
		case obs.KindCounter:
			setUint(key, m.Count)
		case obs.KindGauge:
			out.Counts[key+":high"] = json.Number(strconv.FormatInt(m.High, 10))
		case obs.KindHistogram:
			setUint(key+":count", m.Count)
			out.Counts[key+":sum"] = json.Number(strconv.FormatFloat(m.Sum, 'g', -1, 64))
		}
	}
	if opts.Arena != nil {
		return out
	}
	gen, err := fleet.NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	var steps, sigVerify, writes uint64
	for i := 0; i < opts.Deals; i++ {
		job := gen.Job(i)
		w, err := engine.Build(job.Spec, job.Opts)
		if err != nil {
			t.Fatalf("deal %d: %v", i, err)
		}
		r := w.Run()
		steps += w.Sched.Steps()
		sigVerify += r.Gas.Count(gas.OpSigVerify)
		writes += r.Gas.Count(gas.OpWrite)
	}
	setUint("world:sched.steps", steps)
	setUint("world:gas.sigverify", sigVerify)
	setUint("world:gas.write", writes)
	return out
}

// diffExactCounts lists every field that differs between want and got,
// sorted by name.
func diffExactCounts(want, got exactCounts) []string {
	var moved []string
	if want.ReportSHA256 != got.ReportSHA256 {
		moved = append(moved, fmt.Sprintf("report_sha256: want %s, got %s", want.ReportSHA256, got.ReportSHA256))
	}
	names := make(map[string]bool)
	for name := range want.Counts {
		names[name] = true
	}
	for name := range got.Counts {
		names[name] = true
	}
	for _, name := range slices.Sorted(maps.Keys(names)) {
		w, inWant := want.Counts[name]
		g, inGot := got.Counts[name]
		switch {
		case !inWant:
			moved = append(moved, fmt.Sprintf("%s: new, got %s", name, g))
		case !inGot:
			moved = append(moved, fmt.Sprintf("%s: want %s, now absent", name, w))
		case w != g:
			moved = append(moved, fmt.Sprintf("%s: want %s, got %s", name, w, g))
		}
	}
	return moved
}
