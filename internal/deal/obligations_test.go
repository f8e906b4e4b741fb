package deal

import (
	"testing"

	"xdeal/internal/chain"
)

func TestBrokerEscrowObligations(t *testing.T) {
	s := brokerSpec()

	// Alice brokers: outgoing 100 coins covered by incoming 101, outgoing
	// tickets covered by incoming tickets — she escrows nothing (§1.1:
	// "Alice enters the deal with no assets to swap").
	if obs := NewPlan(s).For("alice").Obligations; len(obs) != 0 {
		t.Fatalf("alice obligations = %v, want none", obs)
	}

	// Bob escrows the tickets.
	obs := NewPlan(s).For("bob").Obligations
	if len(obs) != 1 || len(obs[0].Tokens) != 1 || obs[0].Tokens[0] != "seat-1A" {
		t.Fatalf("bob obligations = %v, want the tickets", obs)
	}

	// Carol escrows her 101 coins.
	obs = NewPlan(s).For("carol").Obligations
	if len(obs) != 1 || obs[0].Amount != 101 {
		t.Fatalf("carol obligations = %v, want 101 coins", obs)
	}
	if obs[0].Asset.Chain != "coinchain" {
		t.Fatalf("carol obligation on %s, want coinchain", obs[0].Asset.Chain)
	}
}

func TestPartialCoverObligation(t *testing.T) {
	coins := func(n uint64) AssetRef {
		return AssetRef{Chain: "c", Token: "coin", Escrow: "e", Kind: Fungible, Amount: n}
	}
	s := &Spec{
		ID:      "partial",
		Parties: []chain.Addr{"a", "b", "c"},
		Transfers: []Transfer{
			{From: "a", To: "b", Asset: coins(50)}, // a sends 50
			{From: "c", To: "a", Asset: coins(30)}, // a receives 30
			{From: "b", To: "c", Asset: coins(20)},
		},
		T0: 1, Delta: 1,
	}
	obs := NewPlan(s).For("a").Obligations
	if len(obs) != 1 || obs[0].Amount != 20 {
		t.Fatalf("a obligations = %v, want shortfall of 20", obs)
	}
}

func TestInitialOwner(t *testing.T) {
	s := brokerSpec()
	key := s.Transfers[1].Asset.Key() // tickets escrow
	if got := s.InitialOwner(key, "seat-1A"); got != "bob" {
		t.Fatalf("InitialOwner = %s, want bob", got)
	}
	if got := s.InitialOwner(key, "ghost"); got != "" {
		t.Fatalf("InitialOwner of absent token = %s, want empty", got)
	}
}

func TestFungibleInOutSums(t *testing.T) {
	s := brokerSpec()
	pl := NewPlan(s)
	coinKey := s.Transfers[0].Asset.Key()
	if in, out := pl.For("alice").Flow(coinKey); in != 101 || out != 100 {
		t.Fatalf("alice coins in/out = %d/%d, want 101/100", in, out)
	}
	if in, _ := pl.For("bob").Flow(coinKey); in != 100 {
		t.Fatalf("bob incoming coins = %d, want 100", in)
	}
}

func TestIncomingTokens(t *testing.T) {
	s := brokerSpec()
	pl := NewPlan(s)
	tixKey := s.Transfers[1].Asset.Key()
	in := pl.For("carol").Incoming
	if len(in) != 1 || in[0].Key != tixKey || len(in[0].TokensIn) != 1 || in[0].TokensIn[0] != "seat-1A" {
		t.Fatalf("carol incoming legs = %+v, want the tickets", in)
	}
	for _, leg := range pl.For("bob").Incoming {
		if leg.Key == tixKey {
			t.Fatalf("bob receives tokens %v, want none", leg.TokensIn)
		}
	}
}

func TestObligationsDeterministicOrder(t *testing.T) {
	s := brokerSpec()
	a := NewPlan(s).For("carol").Obligations
	b := NewPlan(s).For("carol").Obligations
	if len(a) != len(b) {
		t.Fatal("nondeterministic obligations")
	}
	for i := range a {
		if a[i].Asset.Key() != b[i].Asset.Key() {
			t.Fatal("nondeterministic obligation order")
		}
	}
}
