package engine_test

import (
	"testing"

	"xdeal/internal/arena"
	"xdeal/internal/engine"
	"xdeal/internal/feemarket"
	"xdeal/internal/fleet"
	"xdeal/internal/hedge"
	"xdeal/internal/party"
	"xdeal/internal/sim"
	"xdeal/internal/trace"
)

// TestAttributionMatchesDealSpans: the always-on attribution builds only
// the spans trace.Attribute reads, so for every deal it must equal the
// attribution of the full span DAG that -explain and -chrome-trace use —
// over seed-7 timelock, CBC and fee-market isolated populations, and a
// bundled, hedged 2-chain arena where deals queue behind each other and
// get priced out.
func TestAttributionMatchesDealSpans(t *testing.T) {
	deals := 64
	if testing.Short() {
		deals = 16
	}
	isolated := map[string]fleet.GenOptions{
		"timelock":  {Seed: 7, Protocol: "timelock", AdversaryRate: 0.3, DoSRate: 0.15},
		"cbc":       {Seed: 7, Protocol: "cbc", AdversaryRate: 0.3, DoSRate: 0.15},
		"feemarket": {Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, Fees: &fleet.FeeOptions{}},
	}
	for name, gen := range isolated {
		t.Run(name, func(t *testing.T) {
			g, err := fleet.NewGenerator(gen)
			if err != nil {
				t.Fatal(err)
			}
			var runs []dealRun
			for i := 0; i < deals; i++ {
				job := g.Job(i)
				w, err := engine.Build(job.Spec, job.Opts)
				if err != nil {
					t.Fatalf("deal %d: %v", i, err)
				}
				runs = append(runs, dealRun{w, w.Run()})
			}
			checkAttribution(t, runs)
		})
	}
	t.Run("arena", func(t *testing.T) {
		checkAttribution(t, bundledHedgedArena(t, deals/2))
	})
}

type dealRun struct {
	w *engine.World
	r *engine.Result
}

func checkAttribution(t *testing.T, runs []dealRun) {
	t.Helper()
	var decided int
	var queueing, displaced sim.Duration
	for i, run := range runs {
		r := run.r
		if r.Phases.DecisionEnd <= r.Phases.Start {
			if r.Attribution != nil {
				t.Fatalf("deal %d never decided yet has attribution %+v", i, *r.Attribution)
			}
			continue
		}
		want := trace.Attribute(run.w.DealSpans(r), r.Phases.Start, r.Phases.DecisionEnd)
		if r.Attribution == nil || *r.Attribution != want {
			t.Fatalf("deal %d (%s): attribution %+v, full span DAG gives %+v", i, r.Spec.ID, r.Attribution, want)
		}
		decided++
		queueing += want.BlockQueueing
		displaced += want.PricedOut + want.Adversary
	}
	if decided == 0 || queueing == 0 {
		t.Fatalf("population too quiet to tell: %d decided deals, %d queueing ticks", decided, queueing)
	}
	t.Logf("%d decided deals, %d queueing and %d displaced ticks", decided, queueing, displaced)
}

// bundledHedgedArena builds n seed-7 timelock arena deals onto one shared
// 2-chain substrate with the fee market, bundle auctions and hedging on,
// the way arena.Run does, and returns each deal's world and evaluated
// result.
func bundledHedgedArena(t *testing.T, n int) []dealRun {
	t.Helper()
	return sharedArena(t, n, party.ProtoTimelock)
}

// sharedArena is bundledHedgedArena for deals of the given protocol.
func sharedArena(t *testing.T, n int, proto party.Protocol) []dealRun {
	t.Helper()
	gen, err := fleet.NewGenerator(fleet.GenOptions{
		Seed: 7, Protocol: proto.String(), AdversaryRate: 0.3, Fees: &fleet.FeeOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := gen.ArenaPopulation(0, n, fleet.ArenaOptions{DealsPerArena: n, Chains: 2, Bundles: true, Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	sub := engine.NewSubstrate(engine.SubstrateConfig{
		Seed: 7, MaxBlockTxs: 8, FeeMarket: &feemarket.Config{Initial: 100},
		Hedge: &hedge.Params{Collateral: 1, VolWindow: 32}, Bundles: true,
	})
	hooks := &party.AdaptiveHooks{Oracle: arena.NewMarket(sub.Sched, 7, 100, 0.02)}
	worlds := make([]*engine.World, len(pop))
	for k, setup := range pop {
		spec := *setup.Spec
		opts := engine.Options{
			Seed: setup.Seed, Behaviors: setup.Behaviors,
			LabelPrefix: spec.ID + "/", Adaptive: hooks, Protocol: proto,
		}
		if proto == party.ProtoCBC {
			opts.F, opts.Patience = 1, 30*spec.Delta
		}
		w, err := sub.BuildOn(&spec, opts)
		if err != nil {
			t.Fatalf("deal %d: %v", k, err)
		}
		worlds[k] = w
	}
	base := sub.Sched.Now()
	for k, w := range worlds {
		startAt := base + pop[k].StartOffset
		w.Spec.T0 = startAt + pop[k].Spec.T0
		sub.Sched.At(startAt, w.Start)
	}
	sub.Sched.Run()
	runs := make([]dealRun, len(worlds))
	for k, w := range worlds {
		runs[k] = dealRun{w, w.Evaluate()}
	}
	return runs
}
