package deal

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"xdeal/internal/chain"
)

// brokerSpec is the Alice–Bob–Carol deal of §1.1 / Figure 1: Alice pays
// Bob 100 coins, Bob gives Alice tickets, Alice gives Carol the tickets,
// Carol pays Alice 101 coins.
func brokerSpec() *Spec {
	coins := func(n uint64) AssetRef {
		return AssetRef{Chain: "coinchain", Token: "coin", Escrow: "coin-escrow", Kind: Fungible, Amount: n}
	}
	tickets := AssetRef{Chain: "ticketchain", Token: "tix", Escrow: "tix-escrow", Kind: NonFungible, ID: "seat-1A"}
	return &Spec{
		ID:      "broker-deal",
		Parties: []chain.Addr{"alice", "bob", "carol"},
		Transfers: []Transfer{
			{From: "alice", To: "bob", Asset: coins(100)},
			{From: "bob", To: "alice", Asset: tickets},
			{From: "alice", To: "carol", Asset: tickets},
			{From: "carol", To: "alice", Asset: coins(101)},
		},
		T0:    1000,
		Delta: 100,
	}
}

func TestBrokerSpecValidates(t *testing.T) {
	s := brokerSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateTimelock(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := (&Spec{}).Validate(); !errors.Is(err, ErrNoParties) {
		t.Fatalf("err = %v, want ErrNoParties", err)
	}
	s := &Spec{Parties: []chain.Addr{"a"}}
	if err := s.Validate(); !errors.Is(err, ErrNoTransfers) {
		t.Fatalf("err = %v, want ErrNoTransfers", err)
	}
}

func TestValidateRejectsDuplicateParty(t *testing.T) {
	s := brokerSpec()
	s.Parties = append(s.Parties, "alice")
	if err := s.Validate(); !errors.Is(err, ErrDuplicateParty) {
		t.Fatalf("err = %v, want ErrDuplicateParty", err)
	}
}

func TestValidateRejectsOutsiderTransfer(t *testing.T) {
	s := brokerSpec()
	s.Transfers = append(s.Transfers, Transfer{From: "mallory", To: "alice",
		Asset: AssetRef{Chain: "c", Token: "t", Escrow: "e", Kind: Fungible, Amount: 1}})
	if err := s.Validate(); !errors.Is(err, ErrUnknownParty) {
		t.Fatalf("err = %v, want ErrUnknownParty", err)
	}
}

func TestValidateRejectsSelfTransfer(t *testing.T) {
	s := brokerSpec()
	s.Transfers = append(s.Transfers, Transfer{From: "alice", To: "alice",
		Asset: AssetRef{Chain: "c", Token: "t", Escrow: "e", Kind: Fungible, Amount: 1}})
	if err := s.Validate(); !errors.Is(err, ErrSelfTransfer) {
		t.Fatalf("err = %v, want ErrSelfTransfer", err)
	}
}

func TestValidateRejectsZeroAssets(t *testing.T) {
	s := brokerSpec()
	s.Transfers[0].Asset.Amount = 0
	if err := s.Validate(); !errors.Is(err, ErrZeroAsset) {
		t.Fatalf("err = %v, want ErrZeroAsset", err)
	}
	s = brokerSpec()
	s.Transfers[1].Asset.ID = ""
	if err := s.Validate(); !errors.Is(err, ErrZeroAsset) {
		t.Fatalf("err = %v, want ErrZeroAsset", err)
	}
}

func TestValidateTimelockParams(t *testing.T) {
	s := brokerSpec()
	s.Delta = 0
	if err := s.ValidateTimelock(); !errors.Is(err, ErrBadTimelockParams) {
		t.Fatalf("err = %v, want ErrBadTimelockParams", err)
	}
}

func TestIncomingOutgoing(t *testing.T) {
	s := brokerSpec()
	aliceOut := s.Outgoing("alice")
	if len(aliceOut) != 2 {
		t.Fatalf("alice outgoing = %d transfers, want 2", len(aliceOut))
	}
	aliceIn := s.Incoming("alice")
	if len(aliceIn) != 2 {
		t.Fatalf("alice incoming = %d transfers, want 2", len(aliceIn))
	}
	bobIn := s.Incoming("bob")
	if len(bobIn) != 1 || bobIn[0].Asset.Amount != 100 {
		t.Fatalf("bob incoming = %v, want 100 coins from alice", bobIn)
	}
	carolIn := s.Incoming("carol")
	if len(carolIn) != 1 || carolIn[0].Asset.ID != "seat-1A" {
		t.Fatalf("carol incoming = %v, want the tickets", carolIn)
	}
}

func TestEscrowsDeduplicated(t *testing.T) {
	s := brokerSpec()
	es := s.Escrows()
	// Two escrow contracts: coins and tickets (m = 2).
	if len(es) != 2 {
		t.Fatalf("Escrows() = %d, want 2", len(es))
	}
}

func TestEscrowsTouching(t *testing.T) {
	s := brokerSpec()
	pl := NewPlan(s)
	bob := pl.For("bob")
	// Bob receives coins and sends tickets: one incoming escrow (coins),
	// one outgoing (tickets).
	if in := bob.Incoming; len(in) != 1 || in[0].Asset.Chain != "coinchain" {
		t.Fatalf("bob incoming escrows = %v", in)
	}
	if out := bob.Outgoing; len(out) != 1 || out[0].Asset.Chain != "ticketchain" {
		t.Fatalf("bob outgoing escrows = %v", out)
	}
	// Decentralization (§5.1): no single escrow appears for every party.
	counts := make(map[string]int)
	for _, p := range s.Parties {
		pp := pl.For(p)
		seen := map[string]bool{}
		for _, leg := range append(pp.Incoming, pp.Outgoing...) {
			seen[leg.Key] = true
		}
		for k := range seen {
			counts[k]++
		}
	}
	// Alice touches both chains (she brokers), but Bob and Carol each
	// touch both too in this small deal; the property is exercised more
	// thoroughly in the altcoin test below.
	_ = counts
}

func TestDecentralizationWithIntermediary(t *testing.T) {
	// §5.1: Carol holds altcoins and trades with David for coins; Bob
	// never needs to know about the altcoin blockchain.
	coins := AssetRef{Chain: "coinchain", Token: "coin", Escrow: "coin-escrow", Kind: Fungible, Amount: 100}
	alt := AssetRef{Chain: "altchain", Token: "alt", Escrow: "alt-escrow", Kind: Fungible, Amount: 200}
	tickets := AssetRef{Chain: "ticketchain", Token: "tix", Escrow: "tix-escrow", Kind: NonFungible, ID: "T"}
	s := &Spec{
		ID:      "alt-deal",
		Parties: []chain.Addr{"bob", "carol", "david"},
		Transfers: []Transfer{
			{From: "bob", To: "carol", Asset: tickets},
			{From: "carol", To: "david", Asset: alt},
			{From: "david", To: "bob", Asset: coins},
		},
		T0: 1000, Delta: 100,
	}
	if !s.WellFormed() {
		t.Fatal("ring deal should be well-formed")
	}
	if bob := NewPlan(s).For("bob"); slices.Contains(bob.Chains, "altchain") {
		t.Fatal("bob forced to touch the altcoin chain")
	}
}

func TestDigraphShape(t *testing.T) {
	s := brokerSpec()
	g := s.Digraph()
	wantArcs := map[chain.Addr][]chain.Addr{
		"alice": {"bob", "carol"},
		"bob":   {"alice"},
		"carol": {"alice"},
	}
	for from, tos := range wantArcs {
		got := g[from]
		if len(got) != len(tos) {
			t.Fatalf("digraph[%s] = %v, want %v", from, got, tos)
		}
		for i := range tos {
			if got[i] != tos[i] {
				t.Fatalf("digraph[%s] = %v, want %v", from, got, tos)
			}
		}
	}
}

func TestBrokerDealWellFormed(t *testing.T) {
	if !brokerSpec().WellFormed() {
		t.Fatal("Figure 2 digraph is strongly connected; WellFormed() = false")
	}
	if fr := brokerSpec().FreeRiders(); fr != nil {
		t.Fatalf("FreeRiders() = %v, want none", fr)
	}
}

func TestFreeRiderDetected(t *testing.T) {
	// Dave receives coins but gives nothing: a free rider (§5.1).
	coins := AssetRef{Chain: "c", Token: "coin", Escrow: "e", Kind: Fungible, Amount: 1}
	s := &Spec{
		ID:      "freeride",
		Parties: []chain.Addr{"alice", "bob", "dave"},
		Transfers: []Transfer{
			{From: "alice", To: "bob", Asset: coins},
			{From: "bob", To: "alice", Asset: coins},
			{From: "alice", To: "dave", Asset: coins},
		},
		T0: 1, Delta: 1,
	}
	if s.WellFormed() {
		t.Fatal("deal with free rider reported well-formed")
	}
	fr := s.FreeRiders()
	if len(fr) != 1 || fr[0] != "dave" {
		t.Fatalf("FreeRiders() = %v, want [dave]", fr)
	}
}

func TestIsolatedPartyIllFormed(t *testing.T) {
	coins := AssetRef{Chain: "c", Token: "coin", Escrow: "e", Kind: Fungible, Amount: 1}
	s := &Spec{
		ID:      "isolated",
		Parties: []chain.Addr{"alice", "bob", "ghost"},
		Transfers: []Transfer{
			{From: "alice", To: "bob", Asset: coins},
			{From: "bob", To: "alice", Asset: coins},
		},
		T0: 1, Delta: 1,
	}
	if s.WellFormed() {
		t.Fatal("deal with isolated party reported well-formed")
	}
}

func TestTwoDisjointRingsIllFormed(t *testing.T) {
	coins := AssetRef{Chain: "c", Token: "coin", Escrow: "e", Kind: Fungible, Amount: 1}
	s := &Spec{
		ID:      "rings",
		Parties: []chain.Addr{"a", "b", "c", "d"},
		Transfers: []Transfer{
			{From: "a", To: "b", Asset: coins},
			{From: "b", To: "a", Asset: coins},
			{From: "c", To: "d", Asset: coins},
			{From: "d", To: "c", Asset: coins},
		},
		T0: 1, Delta: 1,
	}
	if s.WellFormed() {
		t.Fatal("two disjoint rings reported strongly connected")
	}
	if len(s.FreeRiders()) != 2 {
		t.Fatalf("FreeRiders() = %v, want one full ring", s.FreeRiders())
	}
}

func TestLargeRingWellFormed(t *testing.T) {
	coins := AssetRef{Chain: "c", Token: "coin", Escrow: "e", Kind: Fungible, Amount: 1}
	parties := make([]chain.Addr, 50)
	var transfers []Transfer
	for i := range parties {
		parties[i] = chain.Addr(rune('A'+i%26)) + chain.Addr(rune('0'+i/26))
	}
	for i := range parties {
		transfers = append(transfers, Transfer{
			From: parties[i], To: parties[(i+1)%len(parties)], Asset: coins})
	}
	s := &Spec{ID: "bigring", Parties: parties, Transfers: transfers, T0: 1, Delta: 1}
	if !s.WellFormed() {
		t.Fatal("50-party ring not detected as strongly connected")
	}
}

func TestMatrixRendering(t *testing.T) {
	m := brokerSpec().Matrix()
	// Row "carol" must contain the 101-coin transfer (Figure 1's bottom
	// row), and row "bob" the tickets.
	lines := strings.Split(strings.TrimRight(m, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("matrix has %d lines, want 4 (header + 3 parties)", len(lines))
	}
	var carolRow, bobRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "carol") {
			carolRow = l
		}
		if strings.HasPrefix(l, "bob") {
			bobRow = l
		}
	}
	if !strings.Contains(carolRow, "101 coin") {
		t.Fatalf("carol row %q missing 101 coins", carolRow)
	}
	if !strings.Contains(bobRow, "tix:seat-1A") {
		t.Fatalf("bob row %q missing tickets", bobRow)
	}
}

func TestMaxTransferChain(t *testing.T) {
	// In the broker deal, the tickets move Bob → Alice → Carol: chain of 2.
	if got := brokerSpec().MaxTransferChain(); got != 2 {
		t.Fatalf("MaxTransferChain() = %d, want 2", got)
	}
	// A pure swap has no dependent transfers: chain of 1.
	coins := AssetRef{Chain: "c1", Token: "x", Escrow: "e1", Kind: Fungible, Amount: 1}
	other := AssetRef{Chain: "c2", Token: "y", Escrow: "e2", Kind: Fungible, Amount: 1}
	swap := &Spec{
		ID:      "swap",
		Parties: []chain.Addr{"a", "b"},
		Transfers: []Transfer{
			{From: "a", To: "b", Asset: coins},
			{From: "b", To: "a", Asset: other},
		},
		T0: 1, Delta: 1,
	}
	if got := swap.MaxTransferChain(); got != 1 {
		t.Fatalf("swap MaxTransferChain() = %d, want 1", got)
	}
}

func TestKindString(t *testing.T) {
	if Fungible.String() != "fungible" || NonFungible.String() != "non-fungible" {
		t.Fatal("Kind.String() broken")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind should render numerically")
	}
}

func TestAssetRefString(t *testing.T) {
	f := AssetRef{Chain: "cc", Token: "coin", Kind: Fungible, Amount: 42}
	if f.String() != "42 coin@cc" {
		t.Fatalf("String() = %q", f.String())
	}
	n := AssetRef{Chain: "tc", Token: "tix", Kind: NonFungible, ID: "s1"}
	if n.String() != "tix:s1@tc" {
		t.Fatalf("String() = %q", n.String())
	}
}

// ringSpec builds an n-party single-asset ring for property tests.
func ringSpec(n int) *Spec {
	coins := AssetRef{Chain: "c", Token: "coin", Escrow: "e", Kind: Fungible, Amount: 1}
	parties := make([]chain.Addr, n)
	for i := range parties {
		parties[i] = chain.Addr("p" + string(rune('0'+i%10)) + string(rune('a'+i/10)))
	}
	var transfers []Transfer
	for i := range parties {
		transfers = append(transfers, Transfer{From: parties[i], To: parties[(i+1)%n], Asset: coins})
	}
	return &Spec{ID: "ring", Parties: parties, Transfers: transfers, T0: 1, Delta: 1}
}

func TestQuickRingsAlwaysWellFormedUntilArcRemoved(t *testing.T) {
	prop := func(size uint8, cut uint8) bool {
		n := int(size)%8 + 3
		s := ringSpec(n)
		if !s.WellFormed() {
			return false
		}
		// Removing any single arc from a simple ring breaks strong
		// connectivity.
		i := int(cut) % len(s.Transfers)
		s.Transfers = append(s.Transfers[:i], s.Transfers[i+1:]...)
		return !s.WellFormed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompleteGraphAlwaysWellFormed(t *testing.T) {
	coins := AssetRef{Chain: "c", Token: "coin", Escrow: "e", Kind: Fungible, Amount: 1}
	prop := func(size uint8) bool {
		n := int(size)%6 + 2
		parties := make([]chain.Addr, n)
		for i := range parties {
			parties[i] = chain.Addr(rune('a' + i))
		}
		var transfers []Transfer
		for i := range parties {
			for j := range parties {
				if i != j {
					transfers = append(transfers, Transfer{From: parties[i], To: parties[j], Asset: coins})
				}
			}
		}
		s := &Spec{ID: "k", Parties: parties, Transfers: transfers, T0: 1, Delta: 1}
		return s.WellFormed() && s.FreeRiders() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
