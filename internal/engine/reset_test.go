package engine_test

import (
	"reflect"
	"slices"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/obs"
)

// worldRun is what one deal's run shows: its result, every receipt of
// its chains, the scheduler's step count and the substrate's folded
// metrics.
type worldRun struct {
	result   *engine.Result
	receipts []receipt
	steps    uint64
	metrics  obs.Snapshot
}

// receipt is a copy of one receipt and of its transaction, whose
// callback is dropped: reflect.DeepEqual cannot compare funcs.
type receipt struct {
	chain chain.ID
	tx    chain.Tx
	r     chain.Receipt
}

// observe reads a run off w, which has just run to quiescence.
func observe(w *engine.World, r *engine.Result) worldRun {
	run := worldRun{result: r, steps: w.Sched.Steps()}
	ids := make([]chain.ID, 0, len(w.Chains))
	for id := range w.Chains {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		for _, rc := range w.Chains[id].Receipts() {
			c := receipt{chain: id, tx: *rc.Tx, r: *rc}
			c.tx.OnReceipt, c.r.Tx = nil, nil
			run.receipts = append(run.receipts, c)
		}
	}
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	run.metrics = reg.Snapshot()
	return run
}

// resetPopulations are the isolated workloads' shapes, small.
var resetPopulations = map[string]fleet.GenOptions{
	"timelock":  {Seed: 7, Protocol: "timelock", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6},
	"cbc":       {Seed: 7, Protocol: "cbc", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6},
	"wide":      {Seed: 7, Protocol: "mixed", MaxParties: 10},
	"feemarket": {Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, DoSRate: 0.15, Fees: &fleet.FeeOptions{}},
}

// TestResetEqualsFresh runs each population's deals one after another on
// one substrate, resetting it between deals, and each deal again on a
// substrate of its own: the full result, the receipt stream, the step
// count and the metrics must be equal. The reused substrate's results
// are compared only after every later deal has reset it, so a result
// that aliased reused memory would show.
func TestResetEqualsFresh(t *testing.T) {
	for name, gen := range resetPopulations {
		t.Run(name, func(t *testing.T) {
			g, err := fleet.NewGenerator(gen)
			if err != nil {
				t.Fatal(err)
			}
			jobs := g.Jobs(40)
			if name == "feemarket" {
				// Two transactions a block: transactions queue and are
				// deferred, so receipts carry deferrals.
				for i := range jobs {
					jobs[i].Opts.World.MaxBlockTxs = 2
				}
			}
			var reused, fresh []worldRun
			var sub engine.Substrate
			for _, job := range jobs {
				w, err := sub.Reset(job.Opts.Seed, job.Opts.World).BuildOn(job.Spec, job.Opts)
				if err != nil {
					t.Fatal(err)
				}
				reused = append(reused, observe(w, w.Run()))
				f, err := engine.Build(job.Spec, job.Opts)
				if err != nil {
					t.Fatal(err)
				}
				fresh = append(fresh, observe(f, f.Run()))
			}
			for i := range jobs {
				got, want := reused[i], fresh[i]
				if !reflect.DeepEqual(got.result, want.result) {
					t.Errorf("deal %d: result after resets %+v, fresh %+v", i, got.result, want.result)
				}
				if !reflect.DeepEqual(got.receipts, want.receipts) {
					t.Errorf("deal %d: %d receipts after a reset, %d fresh, or they differ", i, len(got.receipts), len(want.receipts))
				}
				if got.steps != want.steps || !reflect.DeepEqual(got.metrics, want.metrics) {
					t.Errorf("deal %d: %d steps after a reset, %d fresh, or the metrics differ", i, got.steps, want.steps)
				}
			}
		})
	}
}
