// Package deal defines the cross-chain deal abstraction (§2 of the paper):
// a matrix of asset transfers among autonomous parties, together with the
// well-formedness conditions that make a deal worth executing.
//
// A deal is specified as a set of transfers; the matrix view of Figure 1
// and the digraph view of Figure 2 are both derived from it. A deal is
// well-formed when its digraph is strongly connected — otherwise it
// contains free riders who collectively take assets without returning any
// (§5.1), and the remaining parties would do better excluding them.
package deal

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"xdeal/internal/chain"
	"xdeal/internal/sim"
)

// Kind distinguishes fungible from non-fungible assets.
type Kind int

// Asset kinds.
const (
	Fungible Kind = iota
	NonFungible
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fungible:
		return "fungible"
	case NonFungible:
		return "non-fungible"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AssetRef names an asset managed on some chain: a quantity of a fungible
// token or a specific non-fungible token.
type AssetRef struct {
	Chain  chain.ID   // chain where the asset lives
	Token  chain.Addr // token contract address
	Escrow chain.Addr // escrow manager address for this token
	Kind   Kind
	Amount uint64 // fungible quantity
	ID     string // non-fungible token id
}

// String renders the asset compactly, e.g. "100 coin@coinchain" or
// "ticket:seat-1A@ticketchain".
func (a AssetRef) String() string {
	if a.Kind == Fungible {
		return fmt.Sprintf("%d %s@%s", a.Amount, a.Token, a.Chain)
	}
	return fmt.Sprintf("%s:%s@%s", a.Token, a.ID, a.Chain)
}

// Key identifies the escrow contract managing this asset.
func (a AssetRef) Key() string {
	return string(a.Chain) + "/" + string(a.Escrow)
}

// Transfer is one arc of the deal: From relinquishes Asset to To.
type Transfer struct {
	From  chain.Addr
	To    chain.Addr
	Asset AssetRef
}

// String implements fmt.Stringer.
func (t Transfer) String() string {
	return fmt.Sprintf("%s -> %s: %s", t.From, t.To, t.Asset)
}

// Spec is a complete deal specification as broadcast by the
// market-clearing service: the deal identifier, the participant list, the
// transfers, and the timelock parameters t0 and Δ (used by the timelock
// protocol; the CBC protocol ignores them).
type Spec struct {
	ID        string
	Parties   []chain.Addr
	Transfers []Transfer
	T0        sim.Time
	Delta     sim.Duration
}

// Validation errors.
var (
	ErrNoParties         = errors.New("deal: no parties")
	ErrNoTransfers       = errors.New("deal: no transfers")
	ErrDuplicateParty    = errors.New("deal: duplicate party")
	ErrUnknownParty      = errors.New("deal: transfer names a party not in the deal")
	ErrSelfTransfer      = errors.New("deal: transfer from a party to itself")
	ErrZeroAsset         = errors.New("deal: transfer of zero amount or empty token id")
	ErrNotWellFormed     = errors.New("deal: digraph not strongly connected (free riders present)")
	ErrBadTimelockParams = errors.New("deal: timelock parameters must be positive")
)

// Validate checks structural validity: parties are distinct, transfers
// reference deal parties, and assets are non-empty. It does not check
// well-formedness; see WellFormed.
func (s *Spec) Validate() error {
	if len(s.Parties) == 0 {
		return ErrNoParties
	}
	if len(s.Transfers) == 0 {
		return ErrNoTransfers
	}
	seen := make(map[chain.Addr]bool, len(s.Parties))
	for _, p := range s.Parties {
		if seen[p] {
			return fmt.Errorf("%w: %s", ErrDuplicateParty, p)
		}
		seen[p] = true
	}
	for _, t := range s.Transfers {
		if !seen[t.From] {
			return fmt.Errorf("%w: %s", ErrUnknownParty, t.From)
		}
		if !seen[t.To] {
			return fmt.Errorf("%w: %s", ErrUnknownParty, t.To)
		}
		if t.From == t.To {
			return fmt.Errorf("%w: %s", ErrSelfTransfer, t.From)
		}
		if t.Asset.Kind == Fungible && t.Asset.Amount == 0 {
			return fmt.Errorf("%w: %s", ErrZeroAsset, t)
		}
		if t.Asset.Kind == NonFungible && t.Asset.ID == "" {
			return fmt.Errorf("%w: %s", ErrZeroAsset, t)
		}
	}
	return nil
}

// ValidateTimelock additionally checks the timelock parameters.
func (s *Spec) ValidateTimelock() error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Delta <= 0 || s.T0 <= 0 {
		return ErrBadTimelockParams
	}
	return nil
}

// Escrows returns the distinct escrow contracts the deal touches, as
// (chain, escrow address) pairs sorted for determinism. This is the m of
// the paper's cost analysis.
func (s *Spec) Escrows() []AssetRef {
	seen := make(map[string]AssetRef)
	for _, t := range s.Transfers {
		key := t.Asset.Key()
		if _, ok := seen[key]; !ok {
			seen[key] = t.Asset
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]AssetRef, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// Digraph returns the deal's directed graph (Figure 2): an arc from each
// transferring party to each receiving party.
func (s *Spec) Digraph() map[chain.Addr][]chain.Addr {
	adj := make(map[chain.Addr][]chain.Addr, len(s.Parties))
	for _, p := range s.Parties {
		adj[p] = nil
	}
	seen := make(map[[2]chain.Addr]bool)
	for _, t := range s.Transfers {
		k := [2]chain.Addr{t.From, t.To}
		if seen[k] {
			continue
		}
		seen[k] = true
		adj[t.From] = append(adj[t.From], t.To)
	}
	for p := range adj {
		sort.Slice(adj[p], func(i, j int) bool { return adj[p][i] < adj[p][j] })
	}
	return adj
}

// WellFormed reports whether the deal digraph is strongly connected over
// all parties. Parties with no arcs at all make a deal ill-formed.
func (s *Spec) WellFormed() bool {
	return len(stronglyConnectedComponents(s.Digraph())) == 1
}

// FreeRiders returns the parties outside the "core" of the deal: if the
// digraph is not strongly connected, these are members of components that
// can take assets without returning any along some direction. Returns nil
// for a well-formed deal.
func (s *Spec) FreeRiders() []chain.Addr {
	comps := stronglyConnectedComponents(s.Digraph())
	if len(comps) <= 1 {
		return nil
	}
	// Every party in a non-largest component is implicated; report all
	// parties outside the largest component, sorted.
	largest := 0
	for i, c := range comps {
		if len(c) > len(comps[largest]) {
			largest = i
		}
	}
	var out []chain.Addr
	for i, c := range comps {
		if i == largest {
			continue
		}
		out = append(out, c...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stronglyConnectedComponents runs Tarjan's algorithm (iterative) over the
// adjacency map, returning components as party slices.
func stronglyConnectedComponents(adj map[chain.Addr][]chain.Addr) [][]chain.Addr {
	nodes := make([]chain.Addr, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	index := make(map[chain.Addr]int, len(nodes))
	low := make(map[chain.Addr]int, len(nodes))
	onStack := make(map[chain.Addr]bool, len(nodes))
	var stack []chain.Addr
	var comps [][]chain.Addr
	next := 0

	type frame struct {
		node chain.Addr
		iter int
	}
	for _, root := range nodes {
		if _, visited := index[root]; visited {
			continue
		}
		callStack := []frame{{node: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			neighbors := adj[f.node]
			if f.iter < len(neighbors) {
				w := neighbors[f.iter]
				f.iter++
				if _, visited := index[w]; !visited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{node: w})
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
				continue
			}
			// Post-order: pop and propagate lowlink.
			v := f.node
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []chain.Addr
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// Matrix renders the deal as the table of Figure 1: rows are outgoing
// transfers, columns incoming.
func (s *Spec) Matrix() string {
	parties := make([]chain.Addr, len(s.Parties))
	copy(parties, s.Parties)

	cell := make(map[[2]chain.Addr][]string)
	for _, t := range s.Transfers {
		k := [2]chain.Addr{t.From, t.To}
		cell[k] = append(cell[k], t.Asset.String())
	}

	width := 12
	for _, p := range parties {
		if len(p)+2 > width {
			width = len(p) + 2
		}
	}
	for _, v := range cell {
		joined := strings.Join(v, ", ")
		if len(joined)+2 > width {
			width = len(joined) + 2
		}
	}

	var b strings.Builder
	pad := func(s string) string {
		if len(s) >= width {
			return s
		}
		return s + strings.Repeat(" ", width-len(s))
	}
	b.WriteString(pad(""))
	for _, to := range parties {
		b.WriteString(pad(string(to)))
	}
	b.WriteString("\n")
	for _, from := range parties {
		b.WriteString(pad(string(from)))
		for _, to := range parties {
			b.WriteString(pad(strings.Join(cell[[2]chain.Addr{from, to}], ", ")))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MaxTransferChain returns the length of the longest path of dependent
// transfers: transfer B depends on transfer A when B moves an asset (same
// escrow) that A delivers to B's sender. This bounds the sequential
// transfer phase duration (t·Δ worst case, Figure 7).
func (s *Spec) MaxTransferChain() int {
	n := len(s.Transfers)
	depends := make([][]int, n)
	for i, a := range s.Transfers {
		for j, b := range s.Transfers {
			if i == j {
				continue
			}
			if a.Asset.Key() == b.Asset.Key() && a.To == b.From {
				depends[j] = append(depends[j], i)
			}
		}
	}
	memo := make([]int, n)
	var depth func(i int, visiting map[int]bool) int
	depth = func(i int, visiting map[int]bool) int {
		if memo[i] != 0 {
			return memo[i]
		}
		if visiting[i] {
			return 1 // cycle guard; transfers cannot truly cycle
		}
		visiting[i] = true
		best := 1
		for _, d := range depends[i] {
			if v := depth(d, visiting) + 1; v > best {
				best = v
			}
		}
		delete(visiting, i)
		memo[i] = best
		return best
	}
	longest := 0
	for i := 0; i < n; i++ {
		if v := depth(i, map[int]bool{}); v > longest {
			longest = v
		}
	}
	return longest
}
