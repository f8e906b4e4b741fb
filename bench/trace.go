package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"xdeal/internal/arena"
	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/gas"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

// span is one timed call into a layer's public surface, recorded by the
// benchmark from outside. Parent is an index into the same slice (-1
// for the root); Deal is the population index of the deal, or of the
// arena's first deal (-1 for the root). A layer's self time is its span
// minus its children.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Deal   int    `json:"deal"`
}

// recorder appends spans to memory; nothing is written until the pass
// is over.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, deal int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Deal: deal, Start: time.Since(r.t0).Nanoseconds()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.t0).Nanoseconds() }

// durations returns every span of the given name, in seconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is what one traced pass yields: the spans, and the work counts
// read off the worlds' public accessors after each deal (or arena) ran.
type traced struct {
	rec *recorder
	reg *obs.Registry // filled by World.RegisterMetrics / arena.Options.Metrics

	parties, escrows  uint64
	sigVerify, writes uint64 // gas op counts
	// Isolated worlds only: the arena keeps its scheduler, chains and
	// CBC to itself.
	events, simEvents, cbcBlocks uint64
	receipts, failedReceipts     uint64
}

// tracedIsolated drives deals 0..n-1 through the same public calls
// fleet.Sweep makes (Generator.Job, engine.Build, World.Start +
// Sched.Run, World.Evaluate), one span around each, and checks the
// first len(warm) outcomes against the warm-up's fleet.RunJobs records
// to prove the loop runs the same program.
func tracedIsolated(gen *fleet.Generator, n int, warm []outcome) (*traced, error) {
	t := &traced{rec: &recorder{t0: time.Now()}, reg: obs.NewRegistry()}
	rec := t.rec
	root := rec.begin("pass", -1, -1)
	for i := 0; i < n; i++ {
		d := rec.begin("deal", root, i)

		s := rec.begin("fleet.generate", d, i)
		job := gen.Job(i)
		rec.end(s)

		s = rec.begin("engine.build", d, i)
		w, err := engine.Build(job.Spec, job.Opts)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("traced deal %d: build: %w", i, err)
		}
		built := w.Sched.Steps()

		s = rec.begin("engine.simulate", d, i)
		w.Start()
		if job.Opts.RunLimit > 0 {
			w.Sched.RunUntil(job.Opts.RunLimit)
		} else {
			w.Sched.Run()
		}
		rec.end(s)

		s = rec.begin("engine.evaluate", d, i)
		r := w.Evaluate()
		rec.end(s)
		rec.end(d)

		if got := (outcome{r.AllCommitted, r.AllAborted, r.Gas.Used(), int64(r.EndedAt)}); i < len(warm) && got != warm[i] {
			return nil, fmt.Errorf("traced deal %d: outcome %+v, fleet.RunJobs recorded %+v", i, got, warm[i])
		}

		t.parties += uint64(len(job.Spec.Parties))
		t.escrows += uint64(len(job.Spec.Escrows()))
		t.sigVerify += r.Gas.Count(gas.OpSigVerify)
		t.writes += r.Gas.Count(gas.OpWrite)
		t.events += w.Sched.Steps()
		t.simEvents += w.Sched.Steps() - built
		if w.CBC != nil {
			t.cbcBlocks += w.CBC.Height()
		}
		for _, c := range w.Chains {
			for _, rcpt := range c.Receipts() {
				t.receipts++
				if rcpt.Err != nil {
					t.failedReceipts++
				}
			}
		}
		w.RegisterMetrics(t.reg)
	}
	rec.end(root)
	return t, nil
}

// arenaOutcome fingerprints one deal of a shared world; its gas is the
// deal's label-attributed share of the shared chains.
func arenaOutcome(out *arena.DealOutcome) outcome {
	r := out.Result
	return outcome{r.AllCommitted, r.AllAborted, r.DealGas, int64(r.EndedAt)}
}

// arenaOptions maps a sweep's options onto the shared world of arena a,
// the way fleet.Sweep does internally; tracedArenas checks the mapping
// against fleet.ReplayArenaDeal.
func arenaOptions(opts fleet.Options, a int) arena.Options {
	ao := opts.Arena
	// One arena runs one protocol: "mixed" alternates whole arenas.
	proto := opts.Gen.Protocol
	if proto == "mixed" || proto == "" {
		proto = "timelock"
		if a%2 == 1 {
			proto = "cbc"
		}
	}
	o := arena.Options{
		Seed:             sim.Mix64(opts.Gen.Seed ^ sim.Mix64(uint64(a)+0x7fb5d329728ea185)),
		Protocol:         proto,
		Volatility:       ao.Volatility,
		MaxBlockTxs:      ao.MaxBlockTxs,
		Baselines:        ao.Baselines,
		Bundles:          ao.Bundles,
		BundleBudget:     ao.BundleBudget,
		Hedge:            ao.Hedge,
		HedgeCollateral:  ao.HedgeCollateral,
		PremiumVolWindow: ao.PremiumVolWindow,
	}
	if f := opts.Gen.Fees; f != nil {
		o.FeeMarket = true
		o.BaseFee = f.BaseFee
		o.TipBudget = f.TipBudget
	}
	return o
}

// tracedArenas drives the population through Generator.ArenaPopulation
// and arena.Run, one span around each. The arena's scheduler, chains
// and per-deal build/simulate/evaluate steps are inside arena.Run and
// not reachable from here; its registry and the per-arena gas meter are.
// The first deal of each warmed-up arena must match what
// fleet.ReplayArenaDeal returned for it.
func tracedArenas(gen *fleet.Generator, opts fleet.Options, warm []outcome) (*traced, error) {
	t := &traced{rec: &recorder{t0: time.Now()}, reg: obs.NewRegistry()}
	rec := t.rec
	per := opts.Arena.DealsPerArena
	// Like the sweep, hold every arena's result until the pass is over:
	// the live heap sets the GC's pace, and with it the span times.
	var held []*arena.Result
	root := rec.begin("pass", -1, -1)
	for a := 0; a*per < opts.Deals; a++ {
		first := a * per
		count := min(per, opts.Deals-first)
		d := rec.begin("arena", root, first)

		s := rec.begin("fleet.generate", d, first)
		pop, err := gen.ArenaPopulation(a, count, *opts.Arena)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("traced arena %d: %w", a, err)
		}

		ro := arenaOptions(opts, a)
		ro.Metrics = t.reg
		s = rec.begin("arena.run", d, first)
		res, err := arena.Run(ro, pop)
		rec.end(s)
		rec.end(d)
		if err != nil {
			return nil, fmt.Errorf("traced arena %d: %w", a, err)
		}
		held = append(held, res)

		if got := arenaOutcome(&res.Outcomes[0]); a < len(warm) && got != warm[a] {
			return nil, fmt.Errorf("traced arena %d: first deal %+v, fleet.ReplayArenaDeal returned %+v", a, got, warm[a])
		}

		// Result.Gas meters the whole shared world, so it is read once
		// per arena, not once per deal.
		world := res.Outcomes[0].Result.Gas
		t.sigVerify += world.Count(gas.OpSigVerify)
		t.writes += world.Count(gas.OpWrite)
		for _, out := range res.Outcomes {
			t.parties += uint64(len(out.Spec.Parties))
			t.escrows += uint64(len(out.Spec.Escrows()))
		}
	}
	rec.end(root)
	runtime.KeepAlive(held)
	return t, nil
}
