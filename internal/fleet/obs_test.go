package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xdeal/internal/obs"
)

// obsArenaOpts is arenaOpts with the full feature stack armed (fee
// markets, hedging) so the merged registry spans chain, feemarket,
// hedge, and arena counters at once.
func obsArenaOpts(deals, workers int) Options {
	opts := arenaOpts(deals, workers)
	opts.Gen.Fees = &FeeOptions{}
	opts.Arena.Hedge = true
	return opts
}

// metricsSnapshotJSON sweeps with a registry attached and returns the
// snapshot's JSON bytes.
func metricsSnapshotJSON(t *testing.T, opts Options) string {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Obs = &ObsOptions{Metrics: reg}
	if _, err := Sweep(opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsSnapshotDeterministicAcrossWorkerCounts: the merged
// registry is a pure function of the population, never the pool size —
// per-job shards merge commutatively and the snapshot is name-sorted.
// Run under -race this also exercises the shard fan-in for data races.
func TestMetricsSnapshotDeterministicAcrossWorkerCounts(t *testing.T) {
	want := metricsSnapshotJSON(t, sweepOpts(40, 1))
	if !strings.Contains(want, "chain.blocks_sealed") {
		t.Fatalf("isolated snapshot lacks chain counters:\n%s", want)
	}
	for _, workers := range []int{4, 16} {
		if got := metricsSnapshotJSON(t, sweepOpts(40, workers)); got != want {
			t.Fatalf("metrics snapshot at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestArenaMetricsSnapshotDeterministicAcrossWorkerCounts: same
// contract in arena mode with the full stack (fees + hedging), where
// shards are per-arena and the registry spans every subsystem.
func TestArenaMetricsSnapshotDeterministicAcrossWorkerCounts(t *testing.T) {
	deals := 60
	if testing.Short() {
		deals = 20
	}
	want := metricsSnapshotJSON(t, obsArenaOpts(deals, 1))
	for _, name := range []string{
		"chain.blocks_sealed", "chain.mempool_high", "chain.tx_queue_delay_ticks",
		"feemarket.burned", "hedge.binds", "arena.runs", "fleet.deals_run",
	} {
		if !strings.Contains(want, name) {
			t.Fatalf("arena snapshot lacks %s:\n%s", name, want)
		}
	}
	for _, workers := range []int{4, 16} {
		if got := metricsSnapshotJSON(t, obsArenaOpts(deals, workers)); got != want {
			t.Fatalf("arena metrics snapshot at %d workers diverges from serial run (workers=%d)", workers, workers)
		}
	}
}

// TestObsDoesNotChangeReport: a sweep with the whole observability
// layer attached renders byte-identical report output (tables and
// JSON) to the bare sweep — the instruments are passive by contract.
func TestObsDoesNotChangeReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func() Options
	}{
		{"isolated", func() Options { return sweepOpts(40, 4) }},
		{"arena", func() Options { return obsArenaOpts(40, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare := renderedReport(t, tc.opts())
			instrumented := tc.opts()
			reg := obs.NewRegistry()
			instrumented.Obs = &ObsOptions{
				Metrics: reg,
				Flight:  obs.NewRecorder(0),
				Stages:  obs.NewStageTimer(),
			}
			if got := renderedReport(t, instrumented); got != bare {
				t.Fatalf("observability changed the report:\n--- bare ---\n%s\n--- instrumented ---\n%s", bare, got)
			}
			// The signature-work counters ride the same passive path:
			// what the deals' checks cost, and how much of it the
			// substrate memo and the CBC's sign-once caches absorbed.
			asked := reg.Counter("sig.verifications").Value()
			hits := reg.Counter("sig.verify_memo_hits").Value()
			if asked == 0 || hits == 0 || hits >= asked {
				t.Fatalf("sig.verifications = %d, sig.verify_memo_hits = %d; want 0 < hits < verifications", asked, hits)
			}
			if reg.Counter("cbc.certificates_signed").Value() == 0 {
				t.Fatal("a mixed-protocol sweep reports no cbc.certificates_signed")
			}
		})
	}
}

// TestPhasesBlockLocalizesLifecycle: the Phases block carries, per
// protocol, distributions for at least four lifecycle phases, each
// with positive counts and a total no smaller than its parts'
// medians — and the block is identical at any worker count (it rides
// the same index-order fold as every other aggregate).
func TestPhasesBlockLocalizesLifecycle(t *testing.T) {
	rep, err := Sweep(sweepOpts(60, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases == nil || len(rep.Phases.Protocols) == 0 {
		t.Fatal("report has no Phases block")
	}
	for _, pp := range rep.Phases.Protocols {
		if len(pp.Phases) < 4 {
			t.Fatalf("protocol %s localizes only %d phases, want >= 4: %+v",
				pp.Protocol, len(pp.Phases), pp.Phases)
		}
		byName := make(map[string]PhaseDist)
		for _, ph := range pp.Phases {
			if ph.Count <= 0 {
				t.Fatalf("protocol %s phase %s has count %d", pp.Protocol, ph.Phase, ph.Count)
			}
			byName[ph.Phase] = ph
		}
		total, ok := byName["total"]
		if !ok {
			t.Fatalf("protocol %s has no total phase: %+v", pp.Protocol, pp.Phases)
		}
		if total.P50 <= 0 {
			t.Fatalf("protocol %s total p50 = %v, want positive", pp.Protocol, total.P50)
		}
	}

	// Worker-count invariance of the block alone.
	blockJSON := func(workers int) string {
		rep, err := Sweep(sweepOpts(60, workers))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep.Phases)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	want := blockJSON(1)
	for _, workers := range []int{4, 16} {
		if got := blockJSON(workers); got != want {
			t.Fatalf("Phases block at %d workers diverges:\n%s\nvs\n%s", workers, want, got)
		}
	}
}

// TestFlightRecorderCapturesViolations: a hand-built violating record
// folded through the aggregator produces the full evidence trail —
// the deal identity event plus one event per property violation and
// the run error — while a clean record stays silent.
func TestFlightRecorderCapturesViolations(t *testing.T) {
	rec := obs.NewRecorder(0)
	agg := NewAggregator()
	agg.EnableObs(nil, rec)

	agg.Add(Record{Index: 0, Seed: 11, SpecID: "clean", Protocol: "timelock",
		Sequenceable: true, Committed: true, EndedAt: 100})
	if rec.Len() != 0 {
		t.Fatalf("clean record produced %d flight events", rec.Len())
	}

	agg.Add(Record{
		Index: 3, Seed: 99, SpecID: "bad-deal", Shape: "cycle", Protocol: "cbc",
		Adversaries:        1,
		SafetyViolations:   []string{"party A lost escrow e1"},
		LivenessViolations: []string{"party B deposit stranded past timeout"},
		Err:                "run: chain stalled",
		EndedAt:            480,
	})
	// P3: fully compliant, sequenceable, outage-free, yet uncommitted.
	agg.Add(Record{Index: 4, Seed: 101, SpecID: "stuck", Protocol: "timelock",
		Sequenceable: true, Committed: false, EndedAt: 512})

	events := rec.Events()
	kinds := make(map[string]int)
	var details strings.Builder
	for _, ev := range events {
		if ev.Source != "fleet" {
			t.Fatalf("unexpected source %q: %+v", ev.Source, ev)
		}
		kinds[ev.Kind]++
		details.WriteString(ev.Detail + "\n")
	}
	if kinds["deal"] != 2 {
		t.Fatalf("want 2 deal events (one per flagged deal), got %d: %v", kinds["deal"], kinds)
	}
	if kinds["violation"] != 3 {
		t.Fatalf("want 3 violation events (P1+P2+P3), got %d: %v", kinds["violation"], kinds)
	}
	if kinds["error"] != 1 {
		t.Fatalf("want 1 error event, got %d: %v", kinds["error"], kinds)
	}
	for _, want := range []string{
		"property=safety(P1)", "property=liveness(P2)", "property=strong-liveness(P3)",
		"index=3 seed=99", "index=4 seed=101", "chain stalled",
	} {
		if !strings.Contains(details.String(), want) {
			t.Fatalf("flight details lack %q:\n%s", want, details.String())
		}
	}

	// The JSONL export round-trips and keeps seq order.
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != rec.Len() {
		t.Fatalf("JSONL has %d lines, recorder holds %d events", len(lines), rec.Len())
	}
	for i, line := range lines {
		var ev obs.FlightEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d invalid: %v\n%s", i, err, line)
		}
		if int(ev.Seq) != i {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
	}
}

// TestStageTimingCoversSweep: a swept StageTimer accumulates wall time
// in both stages of the world loop, for isolated and arena sweeps alike
// (wall-clock readings stay inside obs and never reach the report).
func TestStageTimingCoversSweep(t *testing.T) {
	for _, ao := range []*ArenaOptions{nil, {DealsPerArena: 10, Chains: 2}} {
		opts := sweepOpts(40, 4)
		opts.Arena = ao
		stages := obs.NewStageTimer()
		opts.Obs = &ObsOptions{Stages: stages}
		if _, err := Sweep(opts); err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"run", "aggregate"} {
			if stages.Seconds(stage) <= 0 {
				t.Fatalf("arena %v: stage %q accumulated %v s, want > 0", ao != nil, stage, stages.Seconds(stage))
			}
		}
	}
}
