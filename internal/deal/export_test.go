package deal

import (
	"sort"

	"xdeal/internal/chain"
)

// InitialOwner returns the party that must escrow a given non-fungible
// token: the one that sends it without receiving it. Returns "" if the
// token does not appear or has no unambiguous source.
func (s *Spec) InitialOwner(escrowKey, tokenID string) chain.Addr {
	senders := make(map[chain.Addr]bool)
	receivers := make(map[chain.Addr]bool)
	for _, t := range s.Transfers {
		if t.Asset.Key() != escrowKey || t.Asset.Kind != NonFungible || t.Asset.ID != tokenID {
			continue
		}
		senders[t.From] = true
		receivers[t.To] = true
	}
	var owner chain.Addr
	for p := range senders {
		if !receivers[p] {
			if owner != "" {
				return "" // two distinct sources: ill-specified
			}
			owner = p
		}
	}
	return owner
}

// Outgoing returns the transfers p relinquishes (p's row in Figure 1).
func (s *Spec) Outgoing(p chain.Addr) []Transfer {
	var out []Transfer
	for _, t := range s.Transfers {
		if t.From == p {
			out = append(out, t)
		}
	}
	return out
}

// Incoming returns the transfers p acquires (p's column in Figure 1).
func (s *Spec) Incoming(p chain.Addr) []Transfer {
	var in []Transfer
	for _, t := range s.Transfers {
		if t.To == p {
			in = append(in, t)
		}
	}
	return in
}

// The Spec scans below are the derivations deal.Plan replaced, kept as
// the oracles TestPlanMatchesSpecDerivations holds the plan to.

// EscrowsTouching returns the escrow contracts managing p's incoming or
// outgoing assets. A compliant party interacts only with these (§5.1:
// "there is no single blockchain that must be accessed by all compliant
// parties").
func (s *Spec) EscrowsTouching(p chain.Addr) (incoming, outgoing []AssetRef) {
	inSeen := make(map[string]bool)
	outSeen := make(map[string]bool)
	for _, t := range s.Transfers {
		key := t.Asset.Key()
		if t.To == p && !inSeen[key] {
			inSeen[key] = true
			incoming = append(incoming, t.Asset)
		}
		if t.From == p && !outSeen[key] {
			outSeen[key] = true
			outgoing = append(outgoing, t.Asset)
		}
	}
	return incoming, outgoing
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
