package deal

import "xdeal/internal/chain"

// VoteDepth returns the timeout-ladder depth this deal actually needs:
// the maximum number of hops a compliant party's commit vote takes to
// reach any escrow contract under motivated forwarding (§5).
//
// A vote originates at its voter's incoming escrows (path length 1).
// Each forwarding hop is performed by a party that touches the escrow
// where the vote landed and pushes it to its own incoming escrows, so
// vote propagation follows the relay graph H over parties with an arc
// u → w whenever w touches (sends or receives at) an escrow holding
// u's incoming assets. The depth is max over ordered pairs (X, P),
// X ≠ P, of dist_H(X, P) + 1 — X's vote reaches P's incoming escrows
// in that many rungs — and every escrow is some party's incoming
// escrow, so this covers all contracts.
//
// The static worst case is N = len(Parties): a ring needs all N rungs
// (votes relay against the ring, one hop per party), while a dense
// deal where every party touches every escrow needs only 2. The result
// is clamped to [2, N]; deals whose relay graph cannot deliver some
// vote — a party with no incoming escrow, or unreachable pairs, both
// only possible on ill-formed digraphs — fall back to N. Only the
// refund floor uses this depth: the per-vote acceptance rule still
// buys |p| rungs per hop, unchanged.
func (s *Spec) VoteDepth() int {
	n := len(s.Parties)
	if n <= 2 {
		return n
	}
	var keys []string
	for _, e := range s.Escrows() {
		keys = append(keys, e.Key())
	}
	incoming := make(map[chain.Addr]map[string]bool, n)
	touches := make(map[chain.Addr]map[string]bool, n)
	for _, p := range s.Parties {
		incoming[p] = make(map[string]bool)
		touches[p] = make(map[string]bool)
	}
	for _, t := range s.Transfers {
		key := t.Asset.Key()
		incoming[t.To][key] = true
		touches[t.To][key] = true
		touches[t.From][key] = true
	}
	for _, p := range s.Parties {
		if len(incoming[p]) == 0 {
			return n // a party nothing is relayed toward: worst case
		}
	}

	// Relay graph, built in deterministic (party, escrow) order.
	adj := make(map[chain.Addr][]chain.Addr, n)
	for _, u := range s.Parties {
		for _, w := range s.Parties {
			if u == w {
				continue
			}
			for _, key := range keys {
				if incoming[u][key] && touches[w][key] {
					adj[u] = append(adj[u], w)
					break
				}
			}
		}
	}

	depth := 2
	for _, x := range s.Parties {
		dist := map[chain.Addr]int{x: 0}
		queue := []chain.Addr{x}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if _, seen := dist[w]; !seen {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		for _, p := range s.Parties {
			if p == x {
				continue
			}
			d, ok := dist[p]
			if !ok {
				return n // unreachable pair: worst case
			}
			if d+1 > depth {
				depth = d + 1
			}
		}
	}
	if depth > n {
		depth = n
	}
	return depth
}
