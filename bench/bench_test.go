package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the smoke test reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Metrics the public surface cannot supply: the arena keeps its
// scheduler, chains and CBC to itself, and isolated worlds run no arena
// and no bundle auctions.
var (
	arenaOnly    = []string{"arena.run_ms_p50", "bundle.defer_rate", "bundle.exclusion_success_rate"}
	isolatedOnly = []string{
		"engine.build_us_per_deal", "engine.simulate_us_per_deal", "engine.evaluate_us_per_deal",
		"engine.deal_wall_p50_us", "engine.deal_wall_p99_us",
		"sim.events_per_deal", "sim.ns_per_event", "cbc.blocks_per_deal", "chain.failed_tx_share",
	}
)

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(table string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", table, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", table, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !name.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("%s[%d]: bad name %q or unit %q", table, i, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload at 64 deals: every metric is emitted
// with its unit, exact metrics and counts repeat at one seed and move
// at another.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			invoke := func(seed uint64, perLayer bool) *document {
				doc, err := run(config{
					workload: w, seed: seed, deals: 64, passes: 1, setups: 1,
					endToEnd: true, perLayer: perLayer,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return doc
			}
			a, b, c := invoke(7, true), invoke(7, true), invoke(11, false)

			missing := arenaOnly
			if w.opts.Arena != nil {
				missing = isolatedOnly
			}
			for _, def := range endToEnd {
				if m, ok := a.EndToEnd[def.Name]; !ok || m.Unit != def.Unit || m.Value == 0 {
					t.Errorf("end-to-end %s: got %+v, want a non-zero value in %s", def.Name, m, def.Unit)
				}
			}
			for _, def := range perLayer {
				m, ok := a.PerLayer[def.Name]
				if ok == slices.Contains(missing, def.Name) {
					t.Errorf("per-layer %s: emitted=%t on this workload", def.Name, ok)
				}
				if ok && m.Unit != def.Unit {
					t.Errorf("per-layer %s: unit %q, want %q", def.Name, m.Unit, def.Unit)
				}
			}

			if !slices.Equal(a.ReportSHA256, b.ReportSHA256) || slices.Equal(a.ReportSHA256, c.ReportSHA256) {
				t.Errorf("report sha256: seed 7 %s and %s, seed 11 %s", a.ReportSHA256, b.ReportSHA256, c.ReportSHA256)
			}
			moved := false
			for _, tab := range []struct {
				defs    []metricDef
				a, b, c map[string]metric
				table   string
			}{
				{endToEnd, a.EndToEnd, b.EndToEnd, c.EndToEnd, "end-to-end"},
				{perLayer, a.PerLayer, b.PerLayer, nil, "per-layer"},
			} {
				for _, def := range tab.defs {
					if !def.Exact {
						continue
					}
					if tab.a[def.Name].Value != tab.b[def.Name].Value {
						t.Errorf("%s %s: %v then %v at seed 7", tab.table, def.Name, tab.a[def.Name].Value, tab.b[def.Name].Value)
					}
					if tab.c != nil && tab.a[def.Name].Value != tab.c[def.Name].Value {
						moved = true
					}
				}
			}
			if !moved {
				t.Error("no exact end-to-end metric differs between seed 7 and seed 11: the seed is not honoured")
			}

			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(a.resultLine()), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("result line: correct=%t attempted=%d failed=%d with %d metrics", line.Correct, line.Attempted, line.Failed, len(line.Metrics))
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	host := func(v, lo, hi float64) metric { return metric{Value: v, Min: f(lo), Max: f(hi), Samples: 3} }
	for _, tc := range []struct {
		name          string
		a, b          metric
		lowerIsBetter bool
		want          string
	}{
		{"within the bound", host(100, 99, 101), host(97, 96, 98), false, "same"},
		{"slower, ranges apart", host(100, 99, 101), host(90, 89, 91), false, "worse"},
		{"faster, ranges apart", host(100, 99, 101), host(110, 109, 111), false, "better"},
		{"slower, ranges overlap", host(100, 85, 101), host(92, 84, 100), false, "unresolved"},
		{"more bytes", host(100, 100, 100), host(110, 110, 110), true, "worse"},
		{"exact and equal", metric{Value: 6.5, Exact: true}, metric{Value: 6.5, Exact: true}, true, "same"},
		{"exact and lower", metric{Value: 6.5, Exact: true}, metric{Value: 6.49, Exact: true}, true, "better"},
		{"exact and higher", metric{Value: 6.5, Exact: true}, metric{Value: 6.51, Exact: true}, true, "worse"},
	} {
		if got := verdict(tc.a, tc.b, tc.lowerIsBetter, 0.05, true); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := verdict(metric{Value: 6.5, Exact: true}, metric{Value: 6.51, Exact: true}, true, 0.05, false); got != "same" {
		t.Errorf("exact metrics of different populations: verdict %s, want same within the bound", got)
	}
}
