package engine

import (
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/feemarket"
	"xdeal/internal/hedge"
	"xdeal/internal/party"
)

// TestHedgedDealPaysOutOnSoreLoserishAbort drives the full defense
// end to end in one isolated world: every compliant party hedges its
// deposits, one party silently withholds its vote (the deal dies at the
// timelock deadline with everyone's capital locked through the window —
// exactly the damage profile of a sore loser), and the victims' claims
// pay out their collateral bonds.
func TestHedgedDealPaysOutOnSoreLoserishAbort(t *testing.T) {
	spec := deal.RingSpec(3, 3000, 500)
	victims := map[chain.Addr]bool{spec.Parties[0]: true, spec.Parties[1]: true}
	var premiums, payouts uint64
	binds, settles := 0, 0
	opts := Options{
		Seed:  42,
		World: SubstrateConfig{FeeMarket: &feemarket.Config{Initial: 100}, Hedge: &hedge.Params{}},
		Behaviors: map[chain.Addr]party.Behavior{
			spec.Parties[0]: {Hedged: true},
			spec.Parties[1]: {Hedged: true},
			spec.Parties[2]: {SkipVoting: true}, // the saboteur holds no cover
		},
		Adaptive: &party.AdaptiveHooks{
			OnHedgeBound: func(p chain.Addr, collateral, premium uint64, vol float64, streak int) {
				if !victims[p] {
					t.Fatalf("unhedged party %s bound cover", p)
				}
				if premium == 0 || collateral == 0 {
					t.Fatalf("degenerate bind by %s: collateral %d premium %d", p, collateral, premium)
				}
				binds++
				premiums += premium
			},
			OnHedgeSettled: func(p chain.Addr, payout bool, amount uint64) {
				settles++
				if payout {
					payouts += amount
				}
			},
		},
	}
	w, err := Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.AllCommitted {
		t.Fatal("the sabotaged deal committed; nothing to hedge against")
	}
	if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
		t.Fatalf("hedging broke protocol properties:\n%s", r.Summary())
	}
	if binds != 2 {
		t.Fatalf("bound %d positions, want 2 (one per hedged deposit)", binds)
	}
	if settles != 2 {
		t.Fatalf("settled %d positions, want 2", settles)
	}
	// Each victim's deposit was locked from the escrow phase to the
	// t0 + N·Δ refund — far past the 1Δ trigger — so both claims pay
	// the full collateral bond (1× the ring deposit of 100 each).
	if payouts == 0 {
		t.Fatal("no payouts despite capital timelocked through an abort")
	}
	var want uint64
	for p := range victims {
		for _, ob := range deal.NewPlan(spec).For(p).Obligations {
			want += ob.Amount
		}
	}
	if payouts != want {
		t.Fatalf("payouts = %d, want the victims' full stranded deposits %d", payouts, want)
	}
	if premiums == 0 {
		t.Fatal("cover was free")
	}
	// The contracts' own ledgers agree with the hook-side accounting.
	var ledgerPayouts, ledgerPremiums uint64
	for _, hm := range w.Hedges {
		tot := hm.Totals()
		ledgerPayouts += tot.Payouts
		ledgerPremiums += tot.Premiums
	}
	if ledgerPayouts != payouts || ledgerPremiums != premiums {
		t.Fatalf("pool ledgers (payouts %d, premiums %d) disagree with metered (%d, %d)",
			ledgerPayouts, ledgerPremiums, payouts, premiums)
	}
	// Hedge activity runs under its own gas label and counts toward the
	// deal's attributable gas.
	if g := r.Gas.UsedByLabel(party.LabelHedge); g == 0 {
		t.Fatal("hedge transactions metered no gas under the hedge label")
	}
}

// TestHedgedCommitRefundsAndStaysCorrect: hedging a deal that commits
// must not perturb the protocol — and the unused cover refunds.
func TestHedgedCommitRefundsAndStaysCorrect(t *testing.T) {
	spec := deal.RingSpec(4, 3000, 500)
	behaviors := make(map[chain.Addr]party.Behavior)
	for _, p := range spec.Parties {
		behaviors[p] = party.Behavior{Hedged: true}
	}
	refunds, payouts := 0, 0
	opts := Options{
		Seed:      7,
		World:     SubstrateConfig{Hedge: &hedge.Params{}},
		Behaviors: behaviors,
		Adaptive: &party.AdaptiveHooks{
			OnHedgeSettled: func(_ chain.Addr, payout bool, _ uint64) {
				if payout {
					payouts++
				} else {
					refunds++
				}
			},
		},
	}
	w, err := Build(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("fully compliant hedged ring did not commit:\n%s", r.Summary())
	}
	if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
		t.Fatalf("violations in a hedged compliant run:\n%s", r.Summary())
	}
	if payouts != 0 {
		t.Fatalf("%d payouts on a committed deal", payouts)
	}
	if refunds != len(spec.Parties) {
		t.Fatalf("%d refunds, want one per party's deposit (%d)", refunds, len(spec.Parties))
	}
}
