package deal

import (
	"fmt"
	"strconv"

	"xdeal/internal/chain"
	"xdeal/internal/sim"
)

// This file provides canonical deal constructors used throughout the
// tests, examples, and benchmark harness.

// nameTable names the i-th party, chain, token or escrow of a built spec:
// the prefix followed by i in at least two digits, as
// fmt.Sprintf("%s%02d", prefix, i) gives. Indices below 100 are served
// from a table, so a spec built for every deal does not format its names
// anew.
type nameTable struct {
	prefix string
	names  [100]string
}

func newNameTable(prefix string) *nameTable {
	t := &nameTable{prefix: prefix}
	for i := range t.names {
		t.names[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return t
}

func (t *nameTable) at(i int) string {
	if i >= 0 && i < len(t.names) {
		return t.names[i]
	}
	return fmt.Sprintf("%s%02d", t.prefix, i)
}

var (
	partyNames  = newNameTable("p")
	brokerNames = newNameTable("broker")
	chainNames  = newNameTable("chain")
	tokenNames  = newNameTable("tok")
	escrowNames = newNameTable("esc")
)

// indexedParties names n parties p00, p01, ….
func indexedParties(n int) []chain.Addr {
	parties := make([]chain.Addr, n)
	for i := range parties {
		parties[i] = chain.Addr(partyNames.at(i))
	}
	return parties
}

// indexedAsset is amount units of the fungible token tokNN on chainNN,
// held by escrow escNN, NN being i.
func indexedAsset(i int, amount uint64) AssetRef {
	return AssetRef{
		Chain:  chain.ID(chainNames.at(i)),
		Token:  chain.Addr(tokenNames.at(i)),
		Escrow: chain.Addr(escrowNames.at(i)),
		Kind:   Fungible,
		Amount: amount,
	}
}

// BrokerSpec is the paper's running example (§1.1, Figures 1 and 2):
// Alice brokers Bob's tickets to Carol for a one-coin commission. Alice
// enters with no assets; her outgoing transfers are funded by her
// incoming ones, which is exactly what distinguishes deals from swaps.
func BrokerSpec(t0 sim.Time, delta sim.Duration) *Spec {
	coins := func(n uint64) AssetRef {
		return AssetRef{Chain: "coinchain", Token: "coin", Escrow: "coin-escrow", Kind: Fungible, Amount: n}
	}
	ticket := AssetRef{Chain: "ticketchain", Token: "ticket", Escrow: "ticket-escrow", Kind: NonFungible, ID: "seat-1A"}
	return &Spec{
		ID:      "broker",
		Parties: []chain.Addr{"alice", "bob", "carol"},
		Transfers: []Transfer{
			{From: "alice", To: "bob", Asset: coins(100)},
			{From: "bob", To: "alice", Asset: ticket},
			{From: "alice", To: "carol", Asset: ticket},
			{From: "carol", To: "alice", Asset: coins(101)},
		},
		T0:    t0,
		Delta: delta,
	}
}

// RingSpec builds an n-party circular deal: party i pays party i+1 one
// unit of a token on its own chain, so the deal spans n chains and n
// escrow contracts (m = n, t = n). Rings are the worst case for vote
// forwarding depth.
func RingSpec(n int, t0 sim.Time, delta sim.Duration) *Spec {
	parties := indexedParties(n)
	var transfers []Transfer
	for i := range parties {
		transfers = append(transfers, Transfer{
			From: parties[i], To: parties[(i+1)%n], Asset: indexedAsset(i, 100),
		})
	}
	return &Spec{
		ID:        "ring-" + strconv.Itoa(n),
		Parties:   parties,
		Transfers: transfers,
		T0:        t0,
		Delta:     delta,
	}
}

// BrokerChainSpec generalizes the broker deal to a chain of k ≥ 1
// intermediaries: the ticket passes seller → b1 → … → bk → buyer on the
// ticket chain while payment flows back buyer → bk → … → seller on the
// coin chain, each broker keeping a commission. Like Alice in the
// paper's running example, every broker enters with no assets: its
// outgoing coins are funded by its incoming ones, and the ticket is
// only passed through tentatively. k = 1 is the Figure 1 shape.
func BrokerChainSpec(k int, basePrice, commission uint64, t0 sim.Time, delta sim.Duration) *Spec {
	if k < 1 {
		k = 1
	}
	coins := func(n uint64) AssetRef {
		return AssetRef{Chain: "coinchain", Token: "coin", Escrow: "coin-escrow", Kind: Fungible, Amount: n}
	}
	ticket := AssetRef{Chain: "ticketchain", Token: "ticket", Escrow: "ticket-escrow", Kind: NonFungible, ID: "lot-1"}
	parties := make([]chain.Addr, 0, k+2)
	parties = append(parties, "seller")
	for i := 1; i <= k; i++ {
		parties = append(parties, chain.Addr(brokerNames.at(i)))
	}
	parties = append(parties, "buyer")
	var transfers []Transfer
	// Ticket path: seller -> broker01 -> ... -> buyer.
	for i := 0; i <= k; i++ {
		transfers = append(transfers, Transfer{From: parties[i], To: parties[i+1], Asset: ticket})
	}
	// Payment path: buyer -> brokerK -> ... -> seller; each hop upstream
	// pays commission less, so brokers' coin obligations net to zero.
	for i := k + 1; i >= 1; i-- {
		price := basePrice + commission*uint64(i-1)
		transfers = append(transfers, Transfer{From: parties[i], To: parties[i-1], Asset: coins(price)})
	}
	return &Spec{
		ID:        "brokerchain-" + strconv.Itoa(k),
		Parties:   parties,
		Transfers: transfers,
		T0:        t0,
		Delta:     delta,
	}
}

// SwapSpec builds the classic two-party cross-chain swap (§8): each party
// transfers an asset on its own chain directly to the other and halts —
// the special case of a deal that hashed-timelock protocols cover.
func SwapSpec(t0 sim.Time, delta sim.Duration) *Spec {
	return &Spec{
		ID:      "swap",
		Parties: []chain.Addr{"alice", "bob"},
		Transfers: []Transfer{
			{From: "alice", To: "bob", Asset: AssetRef{
				Chain: "chainA", Token: "tokA", Escrow: "escA", Kind: Fungible, Amount: 100}},
			{From: "bob", To: "alice", Asset: AssetRef{
				Chain: "chainB", Token: "tokB", Escrow: "escB", Kind: Fungible, Amount: 200}},
		},
		T0:    t0,
		Delta: delta,
	}
}

// DenseSpec builds an n-party deal over m ≥ 2 escrow contracts with
// t = m·(n−1) transfers. On chain j the asset flows along a path starting
// at party j mod n and visiting all parties: the path's head escrows the
// full amount and everyone downstream passes it on tentatively. Paths are
// acyclic per escrow (so the tentative-transfer flow can always be
// sequenced, like the broker deal's ticket chain) while the union of the
// rotated paths covers the full ring, keeping the deal strongly
// connected. Used for gas sweeps where m and t vary independently of n.
func DenseSpec(n, m int, t0 sim.Time, delta sim.Duration) *Spec {
	if m < 2 {
		m = 2
	}
	parties := indexedParties(n)
	var transfers []Transfer
	for j := 0; j < m; j++ {
		asset := indexedAsset(j, 10)
		start := j % n
		for i := 0; i < n-1; i++ {
			transfers = append(transfers, Transfer{
				From:  parties[(start+i)%n],
				To:    parties[(start+i+1)%n],
				Asset: asset,
			})
		}
	}
	return &Spec{
		ID:        "dense-" + strconv.Itoa(n) + "x" + strconv.Itoa(m),
		Parties:   parties,
		Transfers: transfers,
		T0:        t0,
		Delta:     delta,
	}
}

// RandomSpec generates a random well-formed deal: a ring backbone over n
// parties (guaranteeing strong connectivity) plus extra random arcs, over
// a configurable number of chains. Used by property tests.
func RandomSpec(rng *sim.RNG, n, chains, extraArcs int, t0 sim.Time, delta sim.Duration) *Spec {
	if chains < 1 {
		chains = 1
	}
	parties := indexedParties(n)
	var transfers []Transfer
	for i := range parties {
		transfers = append(transfers, Transfer{
			From:  parties[i],
			To:    parties[(i+1)%n],
			Asset: indexedAsset(rng.Intn(chains), uint64(10+rng.Intn(90))),
		})
	}
	for k := 0; k < extraArcs; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		transfers = append(transfers, Transfer{
			From:  parties[i],
			To:    parties[j],
			Asset: indexedAsset(rng.Intn(chains), uint64(1+rng.Intn(50))),
		})
	}
	return &Spec{
		ID:        "random-" + strconv.Itoa(n) + "-" + strconv.Itoa(extraArcs),
		Parties:   parties,
		Transfers: transfers,
		T0:        t0,
		Delta:     delta,
	}
}

// AuctionSpec models the §9 sealed-bid auction settlement deal: the
// winner pays the seller and receives the ticket; the loser's deposit
// returns. Settlement is expressed as a deal between seller, winner, and
// loser (the loser's transfers net to zero but its participation keeps
// the digraph strongly connected via refund arcs).
func AuctionSpec(t0 sim.Time, delta sim.Duration, winBid, loseBid uint64) *Spec {
	coins := func(n uint64) AssetRef {
		return AssetRef{Chain: "coinchain", Token: "coin", Escrow: "coin-escrow", Kind: Fungible, Amount: n}
	}
	ticket := AssetRef{Chain: "ticketchain", Token: "ticket", Escrow: "ticket-escrow", Kind: NonFungible, ID: "lot-1"}
	return &Spec{
		ID:      "auction",
		Parties: []chain.Addr{"seller", "winner", "loser"},
		Transfers: []Transfer{
			{From: "winner", To: "seller", Asset: coins(winBid)},
			{From: "seller", To: "winner", Asset: ticket},
			{From: "loser", To: "seller", Asset: coins(loseBid)},
			{From: "seller", To: "loser", Asset: coins(loseBid)},
		},
		T0:    t0,
		Delta: delta,
	}
}
