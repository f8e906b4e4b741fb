package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `bench compare <a> <b>`: one row per
// (workload, end-to-end metric) of two result sets, b judged against a.
// Each argument is a document written by a run, or a directory of them.
// Returns the exit code: 1 when any row is worse, 2 on bad input.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with directions and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] <a.json|dir> <b.json|dir>")
		return 2
	}
	var spec benchmarkSpec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	var a, b map[string]*document
	if err == nil {
		a, err = loadDocuments(fs.Arg(0))
	}
	if err == nil {
		b, err = loadDocuments(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}

	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "bench compare: the two sets share no workload with end-to-end metrics")
		return 2
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tverdict")
	worse := 0
	for _, name := range names {
		da, db := a[name], b[name]
		samePopulation := da.Seed == db.Seed && da.Deals == db.Deals
		for _, def := range spec.EndToEnd {
			ma, okA := da.EndToEnd[def.Name]
			mb, okB := db.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(ma, mb, def.Better == "lower", def.Bound, samePopulation)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f (base a=%.6g)\t%g\t%s\n",
				name, def.Name, ma.Value, mb.Value, mb.Value/ma.Value, ma.Value, def.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// verdict judges b against a. Exact metrics of the same population
// compare by equality: any difference is a behaviour change, better or
// worse by the metric's direction. Host-time metrics are the same
// within the bound, and unresolved when they differ by more but the two
// runs' min–max ranges overlap by more than the bound.
func verdict(a, b metric, lowerIsBetter bool, bound float64, samePopulation bool) string {
	if a.Value == b.Value {
		return "same"
	}
	worsening := (b.Value - a.Value) / a.Value
	if !lowerIsBetter {
		worsening = -worsening
	}
	if !(a.Exact && samePopulation) {
		if worsening <= bound && worsening >= -bound {
			return "same"
		}
		if a.Min != nil && a.Max != nil && b.Min != nil && b.Max != nil {
			overlap := min(*a.Max, *b.Max) - max(*a.Min, *b.Min)
			if overlap/a.Value > bound {
				return "unresolved"
			}
		}
	}
	if worsening > 0 {
		return "worse"
	}
	return "better"
}

// loadDocuments reads one document, or every *.json document of a
// directory, keyed by workload; documents without an end-to-end block
// (per-layer-only runs) are skipped.
func loadDocuments(path string) (map[string]*document, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	docs := make(map[string]*document)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(d.EndToEnd) > 0 {
			docs[d.Workload] = &d
		}
	}
	return docs, nil
}
