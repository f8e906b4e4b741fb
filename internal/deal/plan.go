package deal

import (
	"slices"

	"xdeal/internal/chain"
)

// Plan holds what the parties executing a Spec, and the engine judging
// them, would otherwise re-derive on every chain event: pure functions
// of (Spec, party), computed once per deal and shared read-only.
type Plan struct {
	Depth        int      // Spec.VoteDepth()
	TransferKeys []string // TransferKeys[i] is Spec.Transfers[i].Asset.Key()
	parties      map[chain.Addr]*PartyPlan
}

// PartyPlan is one party's share of the deal.
type PartyPlan struct {
	Incoming    []Leg        // escrows delivering to the party, in Spec.EscrowsTouching order
	Obligations []Obligation // Spec.EscrowObligations(party)
	Sends       []int        // the party's outgoing transfers, as indexes into Spec.Transfers
	// Chains hosts the escrows the party touches, sorted: the only chains
	// it is motivated to monitor (§5.1).
	Chains []chain.ID
}

// Leg is one escrow contract a party receives assets at.
type Leg struct {
	Asset      AssetRef // as in Spec.EscrowsTouching
	Key        string   // Asset.Key()
	FungibleIn uint64   // Spec.FungibleIncoming(party, Key)
	TokensIn   []string // Spec.IncomingTokens(party, Key)
}

// NewPlan indexes a spec in one pass over its transfers.
func NewPlan(s *Spec) *Plan {
	pl := &Plan{
		Depth:        s.VoteDepth(),
		TransferKeys: make([]string, len(s.Transfers)),
		parties:      make(map[chain.Addr]*PartyPlan, len(s.Parties)),
	}
	touching := func(p chain.Addr, c chain.ID) *PartyPlan {
		pp := pl.parties[p]
		if pp == nil {
			pp = &PartyPlan{Obligations: s.EscrowObligations(p)}
			pl.parties[p] = pp
		}
		if i, found := slices.BinarySearch(pp.Chains, c); !found {
			pp.Chains = slices.Insert(pp.Chains, i, c)
		}
		return pp
	}
	for i, t := range s.Transfers {
		key := t.Asset.Key()
		pl.TransferKeys[i] = key
		from := touching(t.From, t.Asset.Chain)
		from.Sends = append(from.Sends, i)
		to := touching(t.To, t.Asset.Chain)
		j := slices.IndexFunc(to.Incoming, func(l Leg) bool { return l.Key == key })
		if j < 0 {
			j = len(to.Incoming)
			to.Incoming = append(to.Incoming, Leg{Asset: t.Asset, Key: key})
		}
		if leg := &to.Incoming[j]; t.Asset.Kind == Fungible {
			leg.FungibleIn += t.Asset.Amount
		} else {
			i, _ := slices.BinarySearch(leg.TokensIn, t.Asset.ID)
			leg.TokensIn = slices.Insert(leg.TokensIn, i, t.Asset.ID)
		}
	}
	return pl
}

// For returns p's share of the deal; a party the deal never mentions has
// an empty one.
func (pl *Plan) For(p chain.Addr) *PartyPlan {
	if pp := pl.parties[p]; pp != nil {
		return pp
	}
	return &PartyPlan{}
}

// Obligation returns what the party must escrow at an escrow key, or nil.
func (pp *PartyPlan) Obligation(key string) *Obligation {
	if i := slices.IndexFunc(pp.Obligations, func(o Obligation) bool { return o.Key == key }); i >= 0 {
		return &pp.Obligations[i]
	}
	return nil
}
