package cbc

import (
	"sort"

	"xdeal/internal/chain"
)

// SortedParties returns a deal's parties sorted (for deterministic
// iteration in reports).
func (d *DealState) SortedParties() []chain.Addr {
	out := append([]chain.Addr(nil), d.Parties...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
