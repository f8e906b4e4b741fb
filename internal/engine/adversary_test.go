package engine

import (
	"fmt"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

// assertClean fails the test on any safety or liveness violation.
func assertClean(t *testing.T, r *Result) {
	t.Helper()
	if len(r.SafetyViolations) > 0 {
		t.Fatalf("safety violations:\n%s", r.Summary())
	}
	if len(r.LivenessViolations) > 0 {
		t.Fatalf("liveness violations:\n%s", r.Summary())
	}
}

func TestRingCommitsAllCompliantTimelock(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		spec := deal.RingSpec(n, 3000, 1000)
		w, err := Build(spec, Options{Seed: uint64(n), Protocol: party.ProtoTimelock})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("n=%d: strong liveness failed:\n%s", n, r.Summary())
		}
		assertClean(t, r)
	}
}

func TestRingCommitsAllCompliantCBC(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		spec := deal.RingSpec(n, 3000, 1000)
		w, err := Build(spec, Options{Seed: uint64(n), Protocol: party.ProtoCBC, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("n=%d: strong liveness failed:\n%s", n, r.Summary())
		}
		assertClean(t, r)
	}
}

func TestDenseDealCommitsBothProtocols(t *testing.T) {
	spec := deal.DenseSpec(4, 3, 4000, 1000)
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		w, err := Build(spec, Options{Seed: 77, Protocol: proto, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("%s: dense deal failed:\n%s", proto, r.Summary())
		}
		assertClean(t, r)
	}
}

// singleDeviations enumerates every single-knob deviation worth testing.
func singleDeviations(spec *deal.Spec) map[string]party.Behavior {
	return map[string]party.Behavior{
		"skip-escrow":       {SkipEscrow: true},
		"skip-transfers":    {SkipTransfers: true},
		"skip-voting":       {SkipVoting: true},
		"no-forwarding":     {NoForwarding: true},
		"crash-early":       {CrashAt: 50},
		"crash-mid":         {CrashAt: spec.T0 / 2},
		"crash-late":        {CrashAt: spec.T0 + spec.Delta},
		"vote-too-late":     {VoteDelay: sim.Duration(spec.T0) + sim.Duration(len(spec.Parties)+2)*spec.Delta},
		"offline-at-commit": {OfflineFrom: spec.T0 - 10, OfflineUntil: spec.T0 + 6*spec.Delta},
		"skip-refund-poke":  {SkipRefundPoke: true},
		"corrupt-info":      {CorruptInfo: true},
		"escrow-shortfall":  {EscrowShortfall: 1},
	}
}

func TestTimelockSafetyUnderEverySingleDeviation(t *testing.T) {
	// Theorem 5.1 exercised: for every deviation, applied to every party
	// of the broker deal, no compliant party may end up worse off.
	base := deal.BrokerSpec(2000, 1000)
	for name, b := range singleDeviations(base) {
		for _, who := range base.Parties {
			t.Run(fmt.Sprintf("%s/%s", name, who), func(t *testing.T) {
				spec := deal.BrokerSpec(2000, 1000)
				w, err := Build(spec, Options{
					Seed:     99,
					Protocol: party.ProtoTimelock,
					Behaviors: map[chain.Addr]party.Behavior{
						who: b,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				r := w.Run()
				if len(r.SafetyViolations) > 0 {
					t.Fatalf("safety:\n%s", r.Summary())
				}
				for _, v := range r.LivenessViolations {
					t.Fatalf("liveness: %s\n%s", v, r.Summary())
				}
			})
		}
	}
}

func TestCBCSafetyUnderEverySingleDeviation(t *testing.T) {
	base := deal.BrokerSpec(2000, 1000)
	devs := singleDeviations(base)
	devs["abort-immediately"] = party.Behavior{AbortImmediately: true}
	devs["commit-then-abort-fast"] = party.Behavior{CommitThenAbort: 1}
	for name, b := range devs {
		for _, who := range base.Parties {
			t.Run(fmt.Sprintf("%s/%s", name, who), func(t *testing.T) {
				spec := deal.BrokerSpec(2000, 1000)
				w, err := Build(spec, Options{
					Seed:     101,
					Protocol: party.ProtoCBC,
					F:        1,
					Behaviors: map[chain.Addr]party.Behavior{
						who: b,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				r := w.Run()
				if len(r.SafetyViolations) > 0 {
					t.Fatalf("safety:\n%s", r.Summary())
				}
				// The CBC protocol is atomic: no escrow may commit while
				// another aborts (§6.1). Escrows left unclaimed by a
				// crashed deviator are a liveness matter, not atomicity.
				if !r.Atomic() {
					t.Fatalf("CBC committed and aborted in one deal:\n%s", r.Summary())
				}
				for _, v := range r.LivenessViolations {
					t.Fatalf("liveness: %s\n%s", v, r.Summary())
				}
			})
		}
	}
}

func TestTimelockPairsOfDeviatorsStaySafe(t *testing.T) {
	// No assumption on the number of deviating parties (§2.2): even with
	// two of three parties deviating, the remaining compliant party must
	// be protected.
	spec := deal.BrokerSpec(2000, 1000)
	pairs := []map[chain.Addr]party.Behavior{
		{"alice": {SkipVoting: true}, "bob": {SkipEscrow: true}},
		{"bob": {NoForwarding: true}, "carol": {CrashAt: 500}},
		{"alice": {CrashAt: 2100}, "carol": {SkipTransfers: true}},
		{"bob": {SkipVoting: true}, "carol": {SkipVoting: true}},
	}
	for i, behaviors := range pairs {
		w, err := Build(deal.BrokerSpec(2000, 1000), Options{
			Seed: uint64(200 + i), Protocol: party.ProtoTimelock, Behaviors: behaviors,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
			t.Fatalf("pair %d:\n%s", i, r.Summary())
		}
	}
	_ = spec
}

func TestQuickRandomDealsRandomAdversaries(t *testing.T) {
	// The reproduction's core property sweep: random well-formed deals,
	// random subsets of deviating parties with random deviations, both
	// protocols. Property 1 and Property 2 must hold in every run.
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	behaviors := []party.Behavior{
		{SkipEscrow: true},
		{SkipTransfers: true},
		{SkipVoting: true},
		{NoForwarding: true},
		{CrashAt: 700},
		{CrashAt: 2500},
		{VoteDelay: 9000},
		{OfflineFrom: 1900, OfflineUntil: 7000},
		{AbortImmediately: true},
		{CommitThenAbort: 5},
		{CorruptInfo: true},
		{EscrowShortfall: 3},
	}
	rng := sim.NewRNG(12345)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(4)
		chains := 1 + rng.Intn(3)
		extra := rng.Intn(4)
		spec := deal.RandomSpec(rng, n, chains, extra, 3000, 1000)
		if err := spec.Validate(); err != nil {
			continue
		}
		proto := party.ProtoTimelock
		if rng.Bool(0.5) {
			proto = party.ProtoCBC
		}
		devs := make(map[chain.Addr]party.Behavior)
		for _, p := range spec.Parties {
			if rng.Bool(0.35) {
				devs[p] = behaviors[rng.Intn(len(behaviors))]
			}
		}
		// Occasionally knock a chain (or the CBC) out for a random window:
		// the §9 DoS threat layered on top of party-level deviations.
		opts := Options{
			Seed:      rng.Uint64(),
			Protocol:  proto,
			F:         1,
			Behaviors: devs,
		}
		if rng.Bool(0.3) {
			from := sim.Time(rng.Intn(2000))
			until := from + sim.Time(500+rng.Intn(6000))
			victim := spec.Escrows()[rng.Intn(len(spec.Escrows()))].Chain
			opts.World.Outages = map[chain.ID]Outage{victim: {From: from, Until: until}}
		}
		if proto == party.ProtoCBC && rng.Bool(0.2) {
			from := sim.Time(rng.Intn(1000))
			opts.CBCOutage = Outage{From: from, Until: from + sim.Time(1000+rng.Intn(6000))}
		}
		w, err := Build(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if len(r.SafetyViolations) > 0 {
			t.Fatalf("trial %d (%s, devs=%v):\n%s", trial, proto, devs, r.Summary())
		}
		if len(r.LivenessViolations) > 0 {
			t.Fatalf("trial %d (%s): liveness:\n%s", trial, proto, r.Summary())
		}
		if proto == party.ProtoCBC && !r.Atomic() {
			t.Fatalf("trial %d: CBC mixed outcome:\n%s", trial, r.Summary())
		}
	}
}

func TestNaiveTimeoutsViolateSafety(t *testing.T) {
	// The §5 dilemma made executable: under the broken fixed-timeout rule
	// (every vote must arrive before t0+Δ), forwarded votes arrive too
	// late at some contracts. With a late direct voter, one escrow can
	// commit while another aborts, leaving a compliant party worse off.
	//
	// Construction: in a 3-ring each party votes directly at exactly one
	// escrow; other escrows receive its vote only via forwarding hops.
	// p00 delays its vote until just before the fixed cutoff t0+Δ: the
	// direct copy lands in time, the forwarded copies do not, so one
	// escrow commits while the others refund.
	found := false
	for _, voteDelay := range []sim.Duration{2860, 2880, 2900, 2920, 2940} {
		for seed := uint64(0); seed < 20 && !found; seed++ {
			spec := deal.RingSpec(3, 2000, 1000)
			w, err := Build(spec, Options{
				Seed:         seed,
				Protocol:     party.ProtoTimelock,
				FixedTimeout: true,
				Behaviors: map[chain.Addr]party.Behavior{
					"p00": {VoteDelay: voteDelay},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			r := w.Run()
			if !r.Atomic() || len(r.SafetyViolations) > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("fixed timeouts never produced an inconsistent outcome; ablation lost its point")
	}

	// Control: with path-scaled timeouts, the same last-minute voting
	// stays consistent for every seed and delay.
	for _, voteDelay := range []sim.Duration{2860, 2880, 2900, 2920, 2940} {
		for seed := uint64(0); seed < 20; seed++ {
			spec := deal.RingSpec(3, 2000, 1000)
			w, err := Build(spec, Options{
				Seed:     seed,
				Protocol: party.ProtoTimelock,
				Behaviors: map[chain.Addr]party.Behavior{
					"p00": {VoteDelay: voteDelay},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			r := w.Run()
			if len(r.SafetyViolations) > 0 {
				t.Fatalf("path-scaled timeouts violated safety at seed %d:\n%s", seed, r.Summary())
			}
		}
	}
}

func TestCBCSurvivesPreGSTAsynchrony(t *testing.T) {
	// §6: before the global stabilization time message delays are
	// unbounded; the CBC protocol must stay safe (atomic) throughout and
	// decide once synchrony returns.
	for seed := uint64(0); seed < 10; seed++ {
		spec := deal.BrokerSpec(2000, 1000)
		w, err := Build(spec, Options{
			Seed:     seed,
			Protocol: party.ProtoCBC,
			F:        1,
			World: SubstrateConfig{
				Delays: chain.GSTPolicy{
					GST: 5000, Min: 1, PreMax: 4000, PostMax: 5,
				},
			},
			CBCDelays: chain.GSTPolicy{
				GST: 5000, Min: 1, PreMax: 4000, PostMax: 5,
			},
			Patience: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if len(r.SafetyViolations) > 0 {
			t.Fatalf("seed %d: safety under asynchrony:\n%s", seed, r.Summary())
		}
		if !r.AllCommitted && !r.AllAborted {
			t.Fatalf("seed %d: mixed outcome under asynchrony:\n%s", seed, r.Summary())
		}
		if len(r.LivenessViolations) > 0 {
			t.Fatalf("seed %d: assets locked after GST:\n%s", seed, r.Summary())
		}
	}
}

func TestTimelockBreaksUnderUnboundedAsynchrony(t *testing.T) {
	// The impossibility argument of §6, observed: the timelock protocol
	// assumes synchrony; with unbounded pre-GST delays some run leaves a
	// mixed outcome (one escrow commits, another refunds), which the CBC
	// protocol never does. This is why "no fully decentralized protocol
	// can tolerate periods of communication asynchrony".
	sawMixed := false
	for _, preMax := range []sim.Duration{600, 900, 1200, 1800} {
		for seed := uint64(0); seed < 40 && !sawMixed; seed++ {
			spec := deal.RingSpec(3, 4000, 1000)
			w, err := Build(spec, Options{
				Seed:     seed,
				Protocol: party.ProtoTimelock,
				World: SubstrateConfig{
					Delays: chain.GSTPolicy{
						GST: 1 << 40, Min: 1, PreMax: preMax, PostMax: 5,
					},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			r := w.Run()
			if !r.Atomic() {
				sawMixed = true
			}
		}
		if sawMixed {
			break
		}
	}
	if !sawMixed {
		t.Fatal("timelock never produced a mixed outcome under asynchrony; the CBC's reason to exist is gone")
	}
}

func TestCBCCensorshipAbortsButStaysAtomic(t *testing.T) {
	// §9: validators censor carol; the deal cannot commit, but the CBC
	// still aborts it atomically once parties lose patience.
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:     7,
		Protocol: party.ProtoCBC,
		F:        1,
		Censor:   map[chain.Addr]bool{"carol": true},
		Patience: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllAborted {
		t.Fatalf("expected atomic abort under censorship:\n%s", r.Summary())
	}
	assertClean(t, r)
}

func TestCBCReconfigurationMidDeal(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:             8,
		Protocol:         party.ProtoCBC,
		F:                1,
		Reconfigurations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("deal failed across reconfigurations:\n%s", r.Summary())
	}
	assertClean(t, r)
}

func TestCBCBlockProofFormat(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{
		Seed:        9,
		Protocol:    party.ProtoCBC,
		F:           1,
		ProofFormat: party.ProofBlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("block-proof run failed:\n%s", r.Summary())
	}
	assertClean(t, r)
}

func TestAuctionSettlement(t *testing.T) {
	// §9's auction settlement as a deal, on both protocols.
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		spec := deal.AuctionSpec(2000, 1000, 120, 80)
		w, err := Build(spec, Options{Seed: 10, Protocol: proto, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if !r.AllCommitted {
			t.Fatalf("%s: auction failed:\n%s", proto, r.Summary())
		}
		assertClean(t, r)
		coinKey := "coinchain/coin-escrow"
		if d := r.FungibleDelta["seller"][coinKey]; d != 120 {
			t.Fatalf("seller proceeds = %+d, want +120", d)
		}
		if d := r.FungibleDelta["loser"][coinKey]; d != 0 {
			t.Fatalf("loser delta = %+d, want refund to net zero", d)
		}
		if owner := r.FinalTokenOwners["ticketchain/ticket-escrow"]["lot-1"]; owner != "winner" {
			t.Fatalf("lot owner = %s, want winner", owner)
		}
	}
}

func TestSwapAsDegenerateDeal(t *testing.T) {
	// §8: swaps are the special case of deals with direct transfers.
	spec := deal.SwapSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 11, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("swap failed:\n%s", r.Summary())
	}
	assertClean(t, r)
	if d := r.FungibleDelta["alice"]["chainB/escB"]; d != 200 {
		t.Fatalf("alice received %+d on chainB, want +200", d)
	}
	if d := r.FungibleDelta["bob"]["chainA/escA"]; d != 100 {
		t.Fatalf("bob received %+d on chainA, want +100", d)
	}
}

func TestCorruptInfoDetectedByValidation(t *testing.T) {
	// A deviating party registers the deal with distorted Dinfo.
	// Compliant parties compare the contract's recorded info against the
	// clearing announcement (§4.1) and refuse to validate; the deal
	// aborts with no compliant losses, on both protocols.
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		for _, who := range []chain.Addr{"bob", "carol"} {
			spec := deal.BrokerSpec(2000, 1000)
			w, err := Build(spec, Options{
				Seed: 81, Protocol: proto, F: 1,
				Behaviors: map[chain.Addr]party.Behavior{who: {CorruptInfo: true}},
			})
			if err != nil {
				t.Fatal(err)
			}
			r := w.Run()
			if r.AllCommitted {
				t.Fatalf("%s/%s: deal committed on poisoned info:\n%s", proto, who, r.Summary())
			}
			if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
				t.Fatalf("%s/%s: violations:\n%s", proto, who, r.Summary())
			}
		}
	}
}

func TestEscrowShortfallDetectedByValidation(t *testing.T) {
	// Carol escrows one coin less than she owes; Alice's validation
	// (incoming OnCommit below expectation) fails, so the deal aborts
	// and everyone is refunded.
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		spec := deal.BrokerSpec(2000, 1000)
		w, err := Build(spec, Options{
			Seed: 82, Protocol: proto, F: 1,
			Behaviors: map[chain.Addr]party.Behavior{"carol": {EscrowShortfall: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		if r.AllCommitted {
			t.Fatalf("%s: deal committed despite a short escrow:\n%s", proto, r.Summary())
		}
		if len(r.SafetyViolations) > 0 || len(r.LivenessViolations) > 0 {
			t.Fatalf("%s: violations:\n%s", proto, r.Summary())
		}
		// The short deposit itself is refunded too (carol deviated but
		// timeouts still free her assets).
		if d := r.FungibleDelta["carol"]["coinchain/coin-escrow"]; d != 0 {
			t.Fatalf("%s: carol delta %+d after abort", proto, d)
		}
	}
}
