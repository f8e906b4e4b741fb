package engine

import (
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

func TestLargeRingStress(t *testing.T) {
	// A 12-party, 12-chain ring on both protocols: exercises deep vote
	// forwarding (timelock paths up to length 12) and a busy CBC.
	if testing.Short() {
		t.Skip("stress test")
	}
	spec := deal.RingSpec(12, 12000, 1000)
	w, err := Build(spec, Options{Seed: 71, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("12-ring timelock failed:\n%s", r.Summary())
	}
	assertClean(t, r)

	spec = deal.RingSpec(12, 12000, 1000)
	w, err = Build(spec, Options{Seed: 71, Protocol: party.ProtoCBC, F: 3})
	if err != nil {
		t.Fatal(err)
	}
	r = w.Run()
	if !r.AllCommitted {
		t.Fatalf("12-ring CBC failed:\n%s", r.Summary())
	}
	assertClean(t, r)
}

func TestWideDenseStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	spec := deal.DenseSpec(8, 6, 10000, 1000)
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		w, err := Build(spec, Options{Seed: 72, Protocol: proto, F: 2})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("%s dense 8x6 failed:\n%s", proto, r.Summary())
		}
		assertClean(t, r)
	}
}

func TestCBCReconfigurationWithBlockProofs(t *testing.T) {
	// Committee changes mid-deal AND parties settle with block proofs:
	// the proof must carry blocks certified by different epochs plus the
	// handover chain, and contracts must accept the mix.
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:             73,
		Protocol:         party.ProtoCBC,
		F:                1,
		ProofFormat:      party.ProofBlocks,
		Reconfigurations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("reconfigured block-proof run failed:\n%s", r.Summary())
	}
	assertClean(t, r)
}

func TestCBCBlockProofsUnderAsynchrony(t *testing.T) {
	// Pre-GST asynchrony with the naive proof format: atomicity must
	// survive regardless of which proofs parties carry.
	for seed := uint64(0); seed < 5; seed++ {
		spec := deal.BrokerSpec(2000, 1000)
		w, err := Build(spec, Options{
			Seed:        seed,
			Protocol:    party.ProtoCBC,
			F:           1,
			ProofFormat: party.ProofBlocks,
			World:       SubstrateConfig{Delays: chain.GSTPolicy{GST: 4000, Min: 1, PreMax: 3000, PostMax: 5}},
			CBCDelays:   chain.GSTPolicy{GST: 4000, Min: 1, PreMax: 3000, PostMax: 5},
			Patience:    20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.Atomic() {
			t.Fatalf("seed %d: mixed outcome:\n%s", seed, r.Summary())
		}
		if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
			t.Fatalf("seed %d: violations:\n%s", seed, r.Summary())
		}
	}
}

// TestTwoTicketBrokerDeal mirrors the paper's actual story: Bob sells
// *two* coveted tickets. Both ride the same escrow contract through the
// broker chain Bob → Alice → Carol.
func TestTwoTicketBrokerDeal(t *testing.T) {
	coins := func(n uint64) deal.AssetRef {
		return deal.AssetRef{Chain: "coinchain", Token: "coin", Escrow: "coin-escrow",
			Kind: deal.Fungible, Amount: n}
	}
	seat := func(id string) deal.AssetRef {
		return deal.AssetRef{Chain: "ticketchain", Token: "ticket", Escrow: "ticket-escrow",
			Kind: deal.NonFungible, ID: id}
	}
	spec := &deal.Spec{
		ID:      "two-tickets",
		Parties: []chain.Addr{"alice", "bob", "carol"},
		Transfers: []deal.Transfer{
			{From: "alice", To: "bob", Asset: coins(100)},
			{From: "bob", To: "alice", Asset: seat("seat-1A")},
			{From: "bob", To: "alice", Asset: seat("seat-1B")},
			{From: "alice", To: "carol", Asset: seat("seat-1A")},
			{From: "alice", To: "carol", Asset: seat("seat-1B")},
			{From: "carol", To: "alice", Asset: coins(101)},
		},
		T0: 2000, Delta: 1000,
	}
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		w, err := Build(spec, Options{Seed: 74, Protocol: proto, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("%s: two-ticket deal failed:\n%s", proto, r.Summary())
		}
		assertClean(t, r)
		owners := r.FinalTokenOwners["ticketchain/ticket-escrow"]
		if owners["seat-1A"] != "carol" || owners["seat-1B"] != "carol" {
			t.Fatalf("%s: ticket owners = %v, want carol for both", proto, owners)
		}
	}
}

// TestMixedAssetsAcrossManyChains combines fungible and non-fungible legs
// over four chains in one deal.
func TestMixedAssetsAcrossManyChains(t *testing.T) {
	mk := func(c, tok string, amount uint64, id string) deal.AssetRef {
		kind := deal.Fungible
		if id != "" {
			kind = deal.NonFungible
		}
		return deal.AssetRef{Chain: chain.ID(c), Token: chain.Addr(tok),
			Escrow: chain.Addr(tok + "-escrow"), Kind: kind, Amount: amount, ID: id}
	}
	spec := &deal.Spec{
		ID:      "mixed",
		Parties: []chain.Addr{"p1", "p2", "p3", "p4"},
		Transfers: []deal.Transfer{
			{From: "p1", To: "p2", Asset: mk("c1", "gold", 50, "")},
			{From: "p2", To: "p3", Asset: mk("c2", "art", 0, "mona-lisa")},
			{From: "p3", To: "p4", Asset: mk("c3", "silver", 75, "")},
			{From: "p4", To: "p1", Asset: mk("c4", "deed", 0, "plot-7")},
		},
		T0: 3000, Delta: 1000,
	}
	if !spec.WellFormed() {
		t.Fatal("mixed spec not well-formed")
	}
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		w, err := Build(spec, Options{Seed: 75, Protocol: proto, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("%s: mixed deal failed:\n%s", proto, r.Summary())
		}
		assertClean(t, r)
		if r.FinalTokenOwners["c2/art-escrow"]["mona-lisa"] != "p3" {
			t.Fatal("painting not delivered")
		}
		if r.FinalTokenOwners["c4/deed-escrow"]["plot-7"] != "p1" {
			t.Fatal("deed not delivered")
		}
	}
}

// TestRunLimitCutsOffEarly verifies the bounded-run option: the world
// stops at the limit even with pending work, and evaluation still runs.
func TestRunLimitCutsOffEarly(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 76, Protocol: party.ProtoTimelock, RunLimit: 15})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.EndedAt > 15 {
		t.Fatalf("ran to %d, want ≤ 15", r.EndedAt)
	}
	if r.AllCommitted {
		t.Fatal("deal committed in 15 ticks; limit not applied")
	}
	_ = sim.Time(0)
}

// TestWholeSystemDeterminism: identical seeds must yield bit-identical
// results — outcomes, balance deltas, phase times, and gas — across a
// protocol execution involving multiple chains, adversaries, and the CBC.
// This is the property every experiment in EXPERIMENTS.md leans on.
func TestWholeSystemDeterminism(t *testing.T) {
	run := func() *Result {
		spec := deal.BrokerSpec(2000, 1000)
		w, err := Build(spec, Options{
			Seed: 1234, Protocol: party.ProtoCBC, F: 2,
			Behaviors: map[chain.Addr]party.Behavior{
				"bob": {VoteDelay: 500},
			},
			Reconfigurations: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}
	a, b := run(), run()
	if a.AllCommitted != b.AllCommitted || a.AllAborted != b.AllAborted {
		t.Fatal("outcomes diverged across identical runs")
	}
	for key, st := range a.Outcomes {
		if b.Outcomes[key] != st {
			t.Fatalf("escrow %s: %s vs %s", key, st, b.Outcomes[key])
		}
	}
	for p, deltas := range a.FungibleDelta {
		for key, d := range deltas {
			if b.FungibleDelta[p][key] != d {
				t.Fatalf("delta %s@%s: %d vs %d", p, key, d, b.FungibleDelta[p][key])
			}
		}
	}
	if a.Phases != b.Phases {
		t.Fatalf("phase times diverged: %+v vs %+v", a.Phases, b.Phases)
	}
	if a.Gas.Used() != b.Gas.Used() {
		t.Fatalf("gas diverged: %d vs %d", a.Gas.Used(), b.Gas.Used())
	}
	if a.EndedAt != b.EndedAt {
		t.Fatalf("end times diverged: %d vs %d", a.EndedAt, b.EndedAt)
	}
}

// TestDifferentSeedsDifferentSchedules sanity-checks that the seed
// actually matters. Under fast networks the 10-tick block quantization
// absorbs small delay differences, so this uses hop latencies comparable
// to the block interval, where seed variance must show up in the
// decision time.
func TestDifferentSeedsDifferentSchedules(t *testing.T) {
	times := make(map[sim.Time]bool)
	for seed := uint64(1); seed <= 8; seed++ {
		spec := deal.RingSpec(4, 20000, 1000)
		w, err := Build(spec, Options{
			Seed:     seed,
			Protocol: party.ProtoTimelock,
			World:    SubstrateConfig{Delays: chain.SyncPolicy{Min: 50, Max: 450}},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("seed %d failed:\n%s", seed, r.Summary())
		}
		times[r.Phases.DecisionEnd] = true
	}
	if len(times) < 2 {
		t.Fatal("eight different seeds produced identical decision times; seeding suspect")
	}
}
