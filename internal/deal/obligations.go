package deal

import (
	"sort"

	"xdeal/internal/chain"
)

// Obligation is what a party must place in escrow at one escrow contract
// during the escrow phase (§4.1). Parties escrow the assets they own that
// the deal consumes; assets they receive tentatively and pass on (as
// Alice does with Bob's tickets and Carol's coins) need no escrow from
// them.
type Obligation struct {
	Asset  AssetRef // identifies the escrow contract (amount/id fields unset)
	Key    string   // Asset.Key()
	Amount uint64   // fungible: max(0, outgoing − incoming) at this escrow
	Tokens []string // non-fungible: tokens this party sends but never receives
}

// EscrowObligations computes what p must escrow at each escrow contract.
// Fungible: the shortfall between what p sends and what it receives at
// that contract. Non-fungible: the specific tokens p sends without first
// receiving them (p is their original owner).
func (s *Spec) EscrowObligations(p chain.Addr) []Obligation {
	type acc struct {
		asset    AssetRef
		out, in  uint64
		outToks  map[string]bool
		inToks   map[string]bool
		fungible bool
	}
	byEscrow := make(map[string]*acc)
	get := func(a AssetRef) *acc {
		k := a.Key()
		e, ok := byEscrow[k]
		if !ok {
			e = &acc{
				asset:    a,
				outToks:  make(map[string]bool),
				inToks:   make(map[string]bool),
				fungible: a.Kind == Fungible,
			}
			byEscrow[k] = e
		}
		return e
	}
	for _, t := range s.Transfers {
		if t.From == p {
			e := get(t.Asset)
			if t.Asset.Kind == Fungible {
				e.out += t.Asset.Amount
			} else {
				e.outToks[t.Asset.ID] = true
			}
		}
		if t.To == p {
			e := get(t.Asset)
			if t.Asset.Kind == Fungible {
				e.in += t.Asset.Amount
			} else {
				e.inToks[t.Asset.ID] = true
			}
		}
	}

	keys := make([]string, 0, len(byEscrow))
	for k := range byEscrow {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []Obligation
	for _, k := range keys {
		e := byEscrow[k]
		ref := e.asset
		ref.Amount = 0
		ref.ID = ""
		if e.fungible {
			if e.out > e.in {
				out = append(out, Obligation{Asset: ref, Key: k, Amount: e.out - e.in})
			}
			continue
		}
		var toks []string
		for id := range e.outToks {
			if !e.inToks[id] {
				toks = append(toks, id)
			}
		}
		if len(toks) > 0 {
			sort.Strings(toks)
			out = append(out, Obligation{Asset: ref, Key: k, Tokens: toks})
		}
	}
	return out
}

// FungibleIncoming sums p's incoming fungible amount at one escrow.
func (s *Spec) FungibleIncoming(p chain.Addr, escrowKey string) uint64 {
	var total uint64
	for _, t := range s.Transfers {
		if t.To == p && t.Asset.Key() == escrowKey && t.Asset.Kind == Fungible {
			total += t.Asset.Amount
		}
	}
	return total
}

// FungibleOutgoing sums p's outgoing fungible amount at one escrow.
func (s *Spec) FungibleOutgoing(p chain.Addr, escrowKey string) uint64 {
	var total uint64
	for _, t := range s.Transfers {
		if t.From == p && t.Asset.Key() == escrowKey && t.Asset.Kind == Fungible {
			total += t.Asset.Amount
		}
	}
	return total
}

// IncomingTokens lists the non-fungible token ids p receives at an escrow.
func (s *Spec) IncomingTokens(p chain.Addr, escrowKey string) []string {
	var out []string
	for _, t := range s.Transfers {
		if t.To == p && t.Asset.Key() == escrowKey && t.Asset.Kind == NonFungible {
			out = append(out, t.Asset.ID)
		}
	}
	sort.Strings(out)
	return out
}
