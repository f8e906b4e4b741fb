package engine

import (
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/token"
	"xdeal/internal/trace"
)

func TestAtomicClassification(t *testing.T) {
	mk := func(sts ...escrow.Status) *Result {
		r := &Result{Outcomes: make(map[string]escrow.Status)}
		for i, st := range sts {
			r.Outcomes[string(rune('a'+i))] = st
		}
		return r
	}
	cases := []struct {
		name string
		r    *Result
		want bool
	}{
		{"all committed", mk(escrow.StatusCommitted, escrow.StatusCommitted), true},
		{"all aborted", mk(escrow.StatusAborted, escrow.StatusAborted), true},
		{"commit+abort", mk(escrow.StatusCommitted, escrow.StatusAborted), false},
		{"commit+active", mk(escrow.StatusCommitted, escrow.StatusActive), true},
		{"abort+unknown", mk(escrow.StatusAborted, escrow.StatusUnknown), true},
		{"empty", mk(), true},
	}
	for _, c := range cases {
		if got := c.r.Atomic(); got != c.want {
			t.Errorf("%s: Atomic() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPhaseTimesInDelta(t *testing.T) {
	p := PhaseTimes{Start: 1000}
	if got := p.InDelta(3500, 1000); got != 2.5 {
		t.Fatalf("InDelta = %v, want 2.5", got)
	}
	if got := p.InDelta(0, 1000); got != 0 {
		t.Fatalf("InDelta of unset time = %v, want 0", got)
	}
	if got := p.InDelta(2000, 0); got != 0 {
		t.Fatalf("InDelta with zero delta = %v, want 0", got)
	}
}

func TestSummaryShowsViolations(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	r := &Result{
		Spec:             spec,
		Outcomes:         map[string]escrow.Status{"x": escrow.StatusCommitted, "y": escrow.StatusAborted},
		Compliant:        map[chain.Addr]bool{"alice": true, "bob": false, "carol": true},
		FungibleDelta:    map[chain.Addr]map[string]int64{"alice": {"x": 5}, "bob": {}, "carol": {}},
		SafetyViolations: []string{"synthetic violation"},
	}
	s := r.Summary()
	for _, want := range []string{"MIXED", "DEVIATING", "SAFETY VIOLATION", "+5@x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestPhaseGasExtractsLabels(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 61, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.Gas.CountByLabel(party.LabelEscrow, gas.OpWrite) == 0 {
		t.Fatal("escrow phase recorded no writes")
	}
	if r.Gas.UsedByLabel(party.LabelEscrow) == 0 {
		t.Fatal("escrow phase recorded no gas")
	}
}

func TestGasMergedCoversAllChains(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 62, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	merged := w.GasMerged()
	var sum uint64
	for _, c := range w.Chains {
		sum += c.Meter().Used()
	}
	if merged.Used() != sum {
		t.Fatalf("merged gas %d != sum of chains %d", merged.Used(), sum)
	}
}

func TestWorldStringAndKeys(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec, Options{Seed: 63, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	s := w.String()
	if !strings.Contains(s, "broker") || !strings.Contains(s, "timelock") {
		t.Fatalf("String() = %q", s)
	}
	kp := w.Keys("alice")
	msg := []byte("m")
	if !sig.Verify(kp.Public, msg, kp.Sign(msg)) {
		t.Fatal("world key for alice unusable")
	}
}

func TestTraceCapturesProtocolFlow(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	log := trace.New()
	w, err := Build(spec, Options{Seed: 64, Protocol: party.ProtoTimelock, Trace: log})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if !r.AllCommitted {
		t.Fatal("deal did not commit")
	}
	if len(eventsOf(log, "escrowed")) < 2 {
		t.Fatalf("trace has %d escrowed events, want ≥ 2", len(eventsOf(log, "escrowed")))
	}
	if len(eventsOf(log, "vote-accepted")) < 6 {
		t.Fatalf("trace has %d vote events, want ≥ 6 (3 voters × 2 contracts)",
			len(eventsOf(log, "vote-accepted")))
	}
	if len(eventsOf(log, "committed")) != 2 {
		t.Fatalf("trace has %d committed events, want 2", len(eventsOf(log, "committed")))
	}
}

// TestConcurrentDealsCannotDoubleSellTicket is the §10 isolation claim
// end to end: "what if Bob somehow concurrently sells the same tickets to
// Carol and to someone else, collecting coins from both? Escrow contracts
// replace classical locks". Two deals race for seat-1A; exactly one can
// escrow it, so at most one settles the ticket, and Bob cannot collect
// two payments for it.
func TestConcurrentDealsCannotDoubleSellTicket(t *testing.T) {
	// Deal 1: the usual broker deal (bob sells via alice to carol).
	spec1 := deal.BrokerSpec(2000, 1000)
	w, err := Build(spec1, Options{Seed: 65, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}

	// Deal 2: bob sells the same ticket directly to dave for 90 coins,
	// on the same chains and the same escrow contracts.
	ticket := spec1.Transfers[1].Asset
	coins := spec1.Transfers[0].Asset
	coins.Amount = 90
	spec2 := &deal.Spec{
		ID:      "double-sell",
		Parties: []chain.Addr{"bob", "dave"},
		Transfers: []deal.Transfer{
			{From: "bob", To: "dave", Asset: ticket},
			{From: "dave", To: "bob", Asset: coins},
		},
		T0: 2000, Delta: 1000,
	}

	// Wire dave into the shared world: key, funds, approval, party.
	daveKeys := sig.GenerateKeyPair("dave")
	w.sub.pubs["dave"] = daveKeys.Public
	coinChain := w.Chains["coinchain"]
	coinChain.Submit(&chain.Tx{Sender: "mint-authority", Contract: "coin",
		Method: token.MethodMint, Label: "setup", Args: token.MintArgs{To: "dave", Amount: 90}})
	coinChain.Submit(&chain.Tx{Sender: "dave", Contract: "coin",
		Method: token.MethodApprove, Label: "setup",
		Args: token.ApproveArgs{Operator: "coin-escrow", Allowed: true}})
	w.Sched.Run()

	var d2Parties []*party.Party
	for _, addr := range spec2.Parties {
		keys := daveKeys
		if addr == "bob" {
			keys = w.Keys("bob")
		}
		p := party.New(addr, party.Config{
			Spec:     spec2,
			Protocol: party.ProtoTimelock,
			Chains:   w.Chains,
			Sched:    w.Sched,
			Keys:     keys,
		})
		d2Parties = append(d2Parties, p)
	}
	// Both deals launch at essentially the same moment.
	w.Sched.At(1, func() {
		for _, p := range d2Parties {
			p.Start()
		}
	})

	r := w.Run()

	// Exactly one of the two deals may deliver the ticket.
	tix := w.NFTs["ticketchain/ticket-escrow"]
	owner := tix.OwnerOf("seat-1A")
	d2Status := escrow.StatusUnknown
	if st := w.Managers["ticketchain/ticket-escrow"].Deal("double-sell"); st != nil {
		d2Status = st.Status
	}
	d1Status := r.Outcomes["ticketchain/ticket-escrow"]

	committedCount := 0
	if d1Status == escrow.StatusCommitted {
		committedCount++
	}
	if d2Status == escrow.StatusCommitted {
		committedCount++
	}
	if committedCount > 1 {
		t.Fatalf("both deals committed the same ticket: d1=%s d2=%s", d1Status, d2Status)
	}
	switch owner {
	case "carol", "dave", "bob":
		// carol: deal 1 won; dave: deal 2 won; bob: both aborted.
	default:
		t.Fatalf("ticket owned by %q after the race", owner)
	}

	// Bob cannot have been paid twice for one ticket.
	coin := w.Fungibles["coinchain/coin-escrow"]
	bobGain := int64(coin.BalanceOf("bob"))
	if bobGain > 100 {
		t.Fatalf("bob collected %d coins for one ticket", bobGain)
	}
	if owner == "bob" && bobGain != 0 {
		t.Fatalf("bob kept the ticket yet collected %d coins", bobGain)
	}
	_ = sim.Time(0)
}

// eventsOf returns the log's events of one kind, in chronological order.
func eventsOf(log *trace.Log, kind string) []trace.Event {
	var out []trace.Event
	for _, e := range log.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
