package deal

import (
	"reflect"
	"sort"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/sim"
)

// TestPlanAgreesWithSpec: the plan is an index, not a second opinion —
// every entry equals what the Spec scan it replaces returns, on every
// built-in shape and a spread of random digraphs.
func TestPlanAgreesWithSpec(t *testing.T) {
	specs := []*Spec{
		BrokerSpec(2000, 1000), SwapSpec(2000, 1000), AuctionSpec(2000, 1000, 90, 80),
		RingSpec(2, 2000, 1000), RingSpec(6, 2000, 1000),
		BrokerChainSpec(4, 100, 3, 2000, 1000), DenseSpec(5, 3, 2000, 1000),
	}
	rng := sim.NewRNG(11)
	for i := 0; i < 40; i++ {
		specs = append(specs, RandomSpec(rng, 2+rng.Intn(9), 1+rng.Intn(4), rng.Intn(8), 2000, 1000))
	}
	for _, s := range specs {
		pl := NewPlan(s)
		if pl.Depth != s.VoteDepth() {
			t.Fatalf("%s: depth %d, spec says %d", s.ID, pl.Depth, s.VoteDepth())
		}
		for i, tr := range s.Transfers {
			if pl.TransferKeys[i] != tr.Asset.Key() {
				t.Fatalf("%s: transfer %d keyed %q, want %q", s.ID, i, pl.TransferKeys[i], tr.Asset.Key())
			}
		}
		for _, p := range s.Parties {
			pp := pl.For(p)
			in, out := s.EscrowsTouching(p)
			if len(pp.Incoming) != len(in) {
				t.Fatalf("%s/%s: %d incoming legs, want %d", s.ID, p, len(pp.Incoming), len(in))
			}
			chains := map[chain.ID]bool{}
			for _, a := range append(append([]AssetRef(nil), in...), out...) {
				chains[a.Chain] = true
			}
			for i, a := range in {
				leg := pp.Incoming[i]
				if leg.Asset != a || leg.Key != a.Key() {
					t.Fatalf("%s/%s: leg %d = %+v, want asset %+v", s.ID, p, i, leg, a)
				}
				if leg.FungibleIn != s.FungibleIncoming(p, leg.Key) {
					t.Fatalf("%s/%s at %s: fungible in %d, want %d", s.ID, p, leg.Key, leg.FungibleIn, s.FungibleIncoming(p, leg.Key))
				}
				if toks := s.IncomingTokens(p, leg.Key); len(toks)+len(leg.TokensIn) > 0 && !reflect.DeepEqual(leg.TokensIn, toks) {
					t.Fatalf("%s/%s at %s: tokens in %v, want %v", s.ID, p, leg.Key, leg.TokensIn, toks)
				}
			}
			obs := s.EscrowObligations(p)
			if len(obs)+len(pp.Obligations) > 0 && !reflect.DeepEqual(pp.Obligations, obs) {
				t.Fatalf("%s/%s: obligations %+v, want %+v", s.ID, p, pp.Obligations, obs)
			}
			for i, ob := range obs {
				if ob.Key != ob.Asset.Key() || pp.Obligation(ob.Key) != &pp.Obligations[i] {
					t.Fatalf("%s/%s: obligation %d keyed %q", s.ID, p, i, ob.Key)
				}
			}
			var sends []int
			for i, tr := range s.Transfers {
				if tr.From == p {
					sends = append(sends, i)
				}
			}
			if !reflect.DeepEqual(pp.Sends, sends) {
				t.Fatalf("%s/%s: sends %v, want %v", s.ID, p, pp.Sends, sends)
			}
			if len(pp.Chains) != len(chains) || !sort.SliceIsSorted(pp.Chains, func(i, j int) bool { return pp.Chains[i] < pp.Chains[j] }) {
				t.Fatalf("%s/%s: chains %v, want the sorted set %v", s.ID, p, pp.Chains, chains)
			}
			for _, c := range pp.Chains {
				if !chains[c] {
					t.Fatalf("%s/%s: monitors %s, which hosts none of its escrows", s.ID, p, c)
				}
			}
		}
		if pp := pl.For("nobody"); len(pp.Incoming)+len(pp.Obligations)+len(pp.Sends)+len(pp.Chains) != 0 || pp.Obligation("x") != nil {
			t.Fatalf("%s: a stranger has a non-empty plan %+v", s.ID, pp)
		}
	}
}
