package engine_test

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/gas"
	"xdeal/internal/party"
	"xdeal/internal/token"
)

// cloneAndMerge is the reference GasMerged: a fresh merge of every chain's
// meter and the CBC's, sharing nothing with any other deal.
func cloneAndMerge(w *engine.World) *gas.Meter {
	m := gas.NewMeter(gas.DefaultSchedule())
	for _, id := range slices.Sorted(maps.Keys(w.Chains)) {
		m.Merge(w.Chains[id].Meter())
	}
	if w.CBC != nil {
		m.Merge(w.CBC.Meter())
	}
	return m
}

// scanAndSort is the reference receipt sequence: scan every receipt of
// every chain of the deal for the deal's causal labels, then sort.
func scanAndSort(w *engine.World) []engine.ReceiptRef {
	want := make(map[string]bool)
	for _, l := range []string{party.LabelEscrow, party.LabelTransfer, party.LabelCommit, party.LabelAbort, party.LabelHedge} {
		want[w.LabelPrefix()+l] = true
	}
	var out []engine.ReceiptRef
	for _, id := range slices.Sorted(maps.Keys(w.Chains)) {
		for i, r := range w.Chains[id].Receipts() {
			if want[r.Tx.Label] {
				out = append(out, engine.ReceiptRef{Chain: id, Idx: i, R: r})
			}
		}
	}
	slices.SortStableFunc(out, func(a, b engine.ReceiptRef) int {
		return cmp.Or(cmp.Compare(a.R.SubmittedAt, b.R.SubmittedAt), cmp.Compare(a.R.Time, b.R.Time),
			cmp.Compare(a.Chain, b.Chain), cmp.Compare(a.Idx, b.Idx))
	})
	return out
}

var allOps = []gas.Op{gas.OpWrite, gas.OpRead, gas.OpSigVerify, gas.OpArith, gas.OpEvent, gas.OpTxBase}

// sameMeter reports the first read on which got and want differ, or "".
func sameMeter(got, want *gas.Meter) string {
	if got.Used() != want.Used() {
		return fmt.Sprintf("Used %d, want %d", got.Used(), want.Used())
	}
	if g, w := got.Snapshot().String(), want.Snapshot().String(); g != w {
		return fmt.Sprintf("Snapshot %s, want %s", g, w)
	}
	labels := want.Labels()
	if g := got.Labels(); !slices.Equal(g, labels) {
		return fmt.Sprintf("Labels %v, want %v", g, labels)
	}
	for _, l := range append(labels, "never-charged") {
		if got.UsedByLabel(l) != want.UsedByLabel(l) {
			return fmt.Sprintf("UsedByLabel(%s) %d, want %d", l, got.UsedByLabel(l), want.UsedByLabel(l))
		}
		for _, op := range allOps {
			if got.CountByLabel(l, op) != want.CountByLabel(l, op) {
				return fmt.Sprintf("CountByLabel(%s, %s) %d, want %d", l, op, got.CountByLabel(l, op), want.CountByLabel(l, op))
			}
		}
	}
	for _, op := range allOps {
		if got.Count(op) != want.Count(op) {
			return fmt.Sprintf("Count(%s) %d, want %d", op, got.Count(op), want.Count(op))
		}
	}
	return ""
}

// checkEvaluation compares one evaluated deal against the references: the
// result's meter, a fresh GasMerged, DealGas and the receipt sequence.
func checkEvaluation(t *testing.T, name string, run dealRun) {
	t.Helper()
	want := cloneAndMerge(run.w)
	if diff := sameMeter(run.r.Gas, want); diff != "" {
		t.Fatalf("%s: Result.Gas: %s", name, diff)
	}
	if diff := sameMeter(run.w.GasMerged(), want); diff != "" {
		t.Fatalf("%s: GasMerged: %s", name, diff)
	}
	if run.w.LabelPrefix() == "" && run.r.DealGas != want.Used() {
		t.Fatalf("%s: DealGas %d on a private substrate, merged meter uses %d", name, run.r.DealGas, want.Used())
	}
	if got, want := run.w.DealReceipts(), scanAndSort(run.w); !slices.Equal(got, want) {
		t.Fatalf("%s: %d indexed receipts, the scan finds %d:\n%v\n%v", name, len(got), len(want), got, want)
	}
}

// TestEvaluationMatchesCloneAndScan: for every deal of a bundled, hedged
// 2-chain timelock arena, a CBC arena, two unprefixed deals on one
// substrate and the seed-7 isolated timelock, CBC and fee-market
// populations, the shared-union meter reads exactly as
// a fresh merge of every meter, and the receipt index yields exactly the
// receipts a scan of every chain finds, in the same order.
func TestEvaluationMatchesCloneAndScan(t *testing.T) {
	deals := 48
	if testing.Short() {
		deals = 12
	}
	populations := map[string]func() []dealRun{
		"timelock-arena": func() []dealRun { return sharedArena(t, deals, party.ProtoTimelock) },
		"cbc-arena":      func() []dealRun { return sharedArena(t, deals, party.ProtoCBC) },
		// Two deals without a label prefix share one index entry and a
		// substrate, on disjoint chains.
		"unprefixed-pair": func() []dealRun {
			sub := engine.NewSubstrate(7, engine.SubstrateConfig{})
			var runs []dealRun
			for _, spec := range []*deal.Spec{deal.SwapSpec(2000, 1000), deal.RingSpec(3, 2000, 1000)} {
				w, err := sub.BuildOn(spec, engine.Options{Seed: 7, Protocol: party.ProtoTimelock})
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, dealRun{w: w})
			}
			for _, run := range runs {
				run.w.Start()
			}
			sub.Sched.Run()
			for i := range runs {
				runs[i].r = runs[i].w.Evaluate()
			}
			return runs
		},
	}
	for name, gen := range map[string]fleet.GenOptions{
		"timelock":  {Seed: 7, Protocol: "timelock", AdversaryRate: 0.3, DoSRate: 0.15},
		"cbc":       {Seed: 7, Protocol: "cbc", AdversaryRate: 0.3, DoSRate: 0.15},
		"feemarket": {Seed: 7, Protocol: "mixed", AdversaryRate: 0.3, Fees: &fleet.FeeOptions{}},
	} {
		populations[name] = func() []dealRun {
			g, err := fleet.NewGenerator(gen)
			if err != nil {
				t.Fatal(err)
			}
			runs := make([]dealRun, deals)
			for i := range runs {
				job := g.Job(i)
				w, err := engine.Build(job.Spec, job.Opts)
				if err != nil {
					t.Fatalf("deal %d: %v", i, err)
				}
				runs[i] = dealRun{w, w.Run()}
			}
			return runs
		}
	}
	for name, build := range populations {
		t.Run(name, func(t *testing.T) {
			var receipts int
			for i, run := range build() {
				checkEvaluation(t, fmt.Sprintf("deal %d (%s)", i, run.r.Spec.ID), run)
				receipts += len(run.w.DealReceipts())
			}
			if receipts == 0 {
				t.Fatal("no deal executed a transaction")
			}
		})
	}
}

// TestEvaluationSeesLaterCharges: evaluating, then charging a chain's
// meter outside any event and running more transactions, then evaluating
// again gives what a merge from scratch gives — the shared union is
// merged afresh — while the first result's meter keeps what it read.
func TestEvaluationSeesLaterCharges(t *testing.T) {
	isolated, err := engine.Build(deal.RingSpec(4, 5000, 1000), engine.Options{Seed: 3, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	// The two arena deals share chains, so the second is re-evaluated
	// after the first's extra charges as well as its own.
	runs := append([]dealRun{{isolated, isolated.Run()}}, sharedArena(t, 6, party.ProtoTimelock)[:2]...)
	before := make([]*gas.Meter, len(runs))
	for i, run := range runs {
		before[i] = cloneAndMerge(run.w)
	}
	for i, run := range runs {
		name := fmt.Sprintf("world %d (%s)", i, run.r.Spec.ID)
		w := run.w
		receipts := len(w.DealReceipts())
		a := w.Spec.Escrows()[0]
		c := w.Chains[a.Chain]
		c.TestEnv("tester").Write(3)
		c.Submit(&chain.Tx{
			Sender: w.Spec.Parties[0], Contract: a.Token, Method: token.MethodApprove,
			Label:     w.LabelPrefix() + party.LabelEscrow,
			Args:      token.ApproveArgs{Operator: a.Escrow, Allowed: true},
			OnReceipt: func(*chain.Receipt) {},
		})
		w.Sched.Run()
		again := dealRun{w, w.Evaluate()}
		checkEvaluation(t, name+" re-evaluated", again)
		if again.r.Gas.Used() <= run.r.Gas.Used() {
			t.Fatalf("%s: gas %d after more charges, %d before", name, again.r.Gas.Used(), run.r.Gas.Used())
		}
		if got := len(w.DealReceipts()); got != receipts+1 {
			t.Fatalf("%s: %d receipts after one more transaction, %d before", name, got, receipts)
		}
		if diff := sameMeter(run.r.Gas, before[i]); diff != "" {
			t.Fatalf("%s: the first result's meter moved: %s", name, diff)
		}
	}
}
