package deal_test

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/fleet"
	"xdeal/internal/sim"
)

// planMismatch derives s's plan and returns the first way it departs
// from the Spec scans it replaced (export_test.go keeps them as
// oracles), or "" when every field agrees.
func planMismatch(s *deal.Spec) string {
	pl := deal.NewPlan(s)
	for i, tr := range s.Transfers {
		if pl.TransferKeys[i] != tr.Asset.Key() {
			return fmt.Sprintf("transfer %d keyed %q, want %q", i, pl.TransferKeys[i], tr.Asset.Key())
		}
	}
	if escs := s.Escrows(); !reflect.DeepEqual(pl.Escrows, escs) || len(pl.EscrowKeys) != len(escs) {
		return fmt.Sprintf("escrows %v, want %v", pl.Escrows, escs)
	}
	for j, a := range pl.Escrows {
		if pl.EscrowKeys[j] != a.Key() {
			return fmt.Sprintf("escrow %d keyed %q, want %q", j, pl.EscrowKeys[j], a.Key())
		}
	}
	for _, p := range s.Parties {
		pp := pl.For(p)
		in, out := s.EscrowsTouching(p)
		for _, side := range []struct {
			name string
			legs []deal.Leg
			want []deal.AssetRef
		}{{"incoming", pp.Incoming, in}, {"outgoing", pp.Outgoing, out}} {
			if len(side.legs) != len(side.want) {
				return fmt.Sprintf("%s: %d %s legs, want %d", p, len(side.legs), side.name, len(side.want))
			}
			for i, a := range side.want {
				leg, key := side.legs[i], a.Key()
				toks := s.IncomingTokens(p, key)
				switch {
				case leg.Asset != a || leg.Key != key:
					return fmt.Sprintf("%s: %s leg %d = %+v, want asset %+v", p, side.name, i, leg, a)
				case leg.FungibleIn != s.FungibleIncoming(p, key) || leg.FungibleOut != s.FungibleOutgoing(p, key):
					return fmt.Sprintf("%s at %s: fungible in/out %d/%d, want %d/%d", p, key,
						leg.FungibleIn, leg.FungibleOut, s.FungibleIncoming(p, key), s.FungibleOutgoing(p, key))
				case len(toks)+len(leg.TokensIn) > 0 && !reflect.DeepEqual(leg.TokensIn, toks):
					return fmt.Sprintf("%s at %s: tokens in %v, want %v", p, key, leg.TokensIn, toks)
				}
			}
		}
		for _, key := range pl.EscrowKeys {
			if in, out := pp.Flow(key); in != s.FungibleIncoming(p, key) || out != s.FungibleOutgoing(p, key) {
				return fmt.Sprintf("%s at %s: flow %d/%d, want %d/%d", p, key,
					in, out, s.FungibleIncoming(p, key), s.FungibleOutgoing(p, key))
			}
		}
		obs := s.EscrowObligations(p)
		if len(obs)+len(pp.Obligations) > 0 && !reflect.DeepEqual(pp.Obligations, obs) {
			return fmt.Sprintf("%s: obligations %+v, want %+v", p, pp.Obligations, obs)
		}
		for i, ob := range obs {
			if ob.Key != ob.Asset.Key() || pp.Obligation(ob.Key) != &pp.Obligations[i] {
				return fmt.Sprintf("%s: obligation %d keyed %q", p, i, ob.Key)
			}
		}
		var sends []int
		for i, tr := range s.Transfers {
			if tr.From == p {
				sends = append(sends, i)
			}
		}
		if len(sends)+len(pp.Sends) > 0 && !reflect.DeepEqual(pp.Sends, sends) {
			return fmt.Sprintf("%s: sends %v, want %v", p, pp.Sends, sends)
		}
		var chains []chain.ID
		for _, a := range append(in, out...) {
			chains = append(chains, a.Chain)
		}
		slices.Sort(chains)
		if chains = slices.Compact(chains); !slices.Equal(pp.Chains, chains) {
			return fmt.Sprintf("%s: chains %v, want the sorted set %v", p, pp.Chains, chains)
		}
	}
	if pp := pl.For("nobody"); len(pp.Incoming)+len(pp.Outgoing)+len(pp.Obligations)+len(pp.Sends)+len(pp.Chains) != 0 || pp.Obligation("x") != nil {
		return fmt.Sprintf("a stranger has a non-empty plan %+v", pp)
	}
	return ""
}

// TestPlanAgreesWithSpec: the plan is an index, not a second opinion —
// every entry equals what the Spec scan it replaces returns, on every
// built-in shape and a spread of random digraphs.
func TestPlanAgreesWithSpec(t *testing.T) {
	specs := []*deal.Spec{
		deal.BrokerSpec(2000, 1000), deal.SwapSpec(2000, 1000), deal.AuctionSpec(2000, 1000, 90, 80),
		deal.RingSpec(2, 2000, 1000), deal.RingSpec(6, 2000, 1000),
		deal.BrokerChainSpec(4, 100, 3, 2000, 1000), deal.DenseSpec(5, 3, 2000, 1000),
	}
	rng := sim.NewRNG(11)
	for i := 0; i < 40; i++ {
		specs = append(specs, deal.RandomSpec(rng, 2+rng.Intn(9), 1+rng.Intn(4), rng.Intn(8), 2000, 1000))
	}
	for _, s := range specs {
		if msg := planMismatch(s); msg != "" {
			t.Fatalf("%s: %s", s.ID, msg)
		}
	}
}

// TestPlanMatchesSpecDerivations holds the plan to the Spec scans over
// the populations the simulator actually runs — every generator shape,
// both protocols, three party caps, at least perShape jobs of each
// shape — and over hand-built corner cases.
func TestPlanMatchesSpecDerivations(t *testing.T) {
	perShape := 2000
	if testing.Short() {
		perShape = 100
	}
	shapes := []string{fleet.ShapeRing, fleet.ShapeBroker, fleet.ShapeAuction, fleet.ShapeDense, fleet.ShapeRandom}
	for _, proto := range []string{"timelock", "cbc"} {
		for _, maxParties := range []int{3, 6, 10} {
			t.Run(fmt.Sprintf("%s/%d", proto, maxParties), func(t *testing.T) {
				t.Parallel()
				g, err := fleet.NewGenerator(fleet.GenOptions{Seed: 7, Protocol: proto, MaxParties: maxParties})
				if err != nil {
					t.Fatal(err)
				}
				seen := map[string]int{}
				checked := map[string]bool{} // a plan is a pure function of its spec
				for i := 0; slices.ContainsFunc(shapes, func(s string) bool { return seen[s] < perShape }); i++ {
					job := g.Job(i)
					seen[job.Shape]++
					if fp := fingerprint(job.Spec); !checked[fp] {
						checked[fp] = true
						if msg := planMismatch(job.Spec); msg != "" {
							t.Fatalf("job %d (%s): %s", i, job.Spec.ID, msg)
						}
					}
				}
			})
		}
	}
	t.Run("hand-built", checkHandBuiltPlans)
}

// fingerprint renders everything NewPlan reads from a spec.
func fingerprint(s *deal.Spec) string {
	var b []byte
	for _, p := range s.Parties {
		b = append(append(b, p...), 0)
	}
	for _, tr := range s.Transfers {
		a := tr.Asset
		for _, f := range []string{string(tr.From), string(tr.To), string(a.Chain), string(a.Token), string(a.Escrow), a.ID} {
			b = append(append(b, f...), 0)
		}
		b = append(strconv.AppendUint(append(strconv.AppendInt(b, int64(a.Kind), 10), 0), a.Amount, 10), 0)
	}
	return string(b)
}

// checkHandBuiltPlans covers the corner cases no generator draws.
func checkHandBuiltPlans(t *testing.T) {
	coins := func(n uint64) deal.AssetRef {
		return deal.AssetRef{Chain: "coinchain", Token: "coin", Escrow: "coin-escrow", Kind: deal.Fungible, Amount: n}
	}
	alt := func(n uint64) deal.AssetRef {
		return deal.AssetRef{Chain: "altchain", Token: "alt", Escrow: "alt-escrow", Kind: deal.Fungible, Amount: n}
	}
	ticket := deal.AssetRef{Chain: "ticketchain", Token: "tix", Escrow: "tix-escrow", Kind: deal.NonFungible, ID: "T"}
	hand := []*deal.Spec{
		{ // bob receives the ticket and passes it on: he escrows nothing
			ID: "nft-pass-through", Parties: []chain.Addr{"alice", "bob", "carol"},
			Transfers: []deal.Transfer{
				{From: "alice", To: "bob", Asset: ticket},
				{From: "bob", To: "carol", Asset: ticket},
				{From: "carol", To: "alice", Asset: coins(50)},
			},
		},
		{ // carol is paid twice at one fungible escrow
			ID: "two-in-one-escrow", Parties: []chain.Addr{"alice", "bob", "carol"},
			Transfers: []deal.Transfer{
				{From: "alice", To: "carol", Asset: coins(10)},
				{From: "carol", To: "bob", Asset: alt(7)},
				{From: "bob", To: "carol", Asset: coins(5)},
				{From: "carol", To: "alice", Asset: alt(3)},
			},
		},
		{ // alice only sends and carol only receives
			ID: "send-only", Parties: []chain.Addr{"alice", "bob", "carol"},
			Transfers: []deal.Transfer{
				{From: "alice", To: "bob", Asset: coins(20)},
				{From: "bob", To: "carol", Asset: alt(20)},
			},
		},
	}
	for _, s := range hand {
		if msg := planMismatch(s); msg != "" {
			t.Fatalf("%s: %s", s.ID, msg)
		}
	}
	pass := deal.NewPlan(hand[0])
	if bob := pass.For("bob"); len(bob.Obligations) != 0 || !slices.Equal(bob.Outgoing[0].TokensIn, []string{"T"}) {
		t.Fatalf("pass-through bob: %+v", bob)
	}
	if in, _ := deal.NewPlan(hand[1]).For("carol").Flow(coins(0).Key()); in != 15 {
		t.Fatalf("carol receives %d coins, want 15", in)
	}
	if alice := deal.NewPlan(hand[2]).For("alice"); len(alice.Incoming) != 0 || alice.Obligations[0].Amount != 20 {
		t.Fatalf("send-only alice: %+v", alice)
	}
}
