package deal

import "xdeal/internal/chain"

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
