package deal

import (
	"slices"
	"strings"

	"xdeal/internal/chain"
)

// Plan is the one derivation of a deal's structure: what the parties
// executing a Spec, and the engine judging them, would otherwise
// re-derive on every chain event — pure functions of (Spec, party),
// computed once per deal and shared read-only.
type Plan struct {
	TransferKeys []string // TransferKeys[i] is Spec.Transfers[i].Asset.Key()
	// Escrows lists the distinct escrow contracts the deal touches, each
	// as the asset of the first transfer naming it, sorted by key: the m
	// of the paper's cost analysis. EscrowKeys[j] is Escrows[j].Key().
	Escrows    []AssetRef
	EscrowKeys []string
	addrs      []chain.Addr // parties[i] is addrs[i]'s share
	parties    []PartyPlan
}

// PartyPlan is one party's share of the deal.
type PartyPlan struct {
	Incoming    []Leg        // escrows delivering to the party, in the order its first transfer at each arrives
	Outgoing    []Leg        // escrows the party sends from, in the order of its first send at each
	Obligations []Obligation // what the party must escrow, sorted by escrow key
	Sends       []int        // the party's outgoing transfers, as indexes into Spec.Transfers
	// Chains hosts the escrows the party touches, sorted: the only chains
	// it is motivated to monitor (§5.1).
	Chains []chain.ID
}

// Leg is one escrow contract a party receives or sends assets at, with
// the party's whole flow there.
type Leg struct {
	Asset       AssetRef // the first transfer's asset in the leg's direction
	Key         string   // Asset.Key()
	FungibleIn  uint64   // fungible amount the party receives here
	FungibleOut uint64   // fungible amount the party sends here
	TokensIn    []string // non-fungible ids the party receives here, sorted
}

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

// flow sums one party's traffic at one escrow.
type flow struct {
	in, out uint64
	sends   int32 // the party's transfers out of this escrow
	first   int32 // 1 + index of the party's first transfer here; 0 if none
	// inLeg and outLeg are 1 + the index of the party's leg here in
	// Incoming/Outgoing: 0 when it has none, -1 until the leg opens.
	inLeg, outLeg int32
}

// tally counts what flows put in a party's slices, so each kind is
// carved from one allocation for the whole plan.
type tally struct{ sends, in, out, touched, owes int }

func (c *tally) add(s *Spec, f flow) {
	if f.first == 0 {
		return
	}
	c.sends += int(f.sends)
	c.touched++
	c.in += int(-f.inLeg) // -1 or 0: tallies run before any leg opens
	c.out += int(-f.outLeg)
	// Exact for a fungible escrow; for a non-fungible one an upper bound,
	// since every token the party sends there may be one it received.
	if fungible := s.Transfers[f.first-1].Asset.Kind == Fungible; fungible && f.out > f.in || !fungible && f.outLeg != 0 {
		c.owes++
	}
}

// NewPlan derives a spec's plan. One pass over the transfers interns
// every escrow and party as a dense index, building each escrow key
// once; the rest runs on those indices and a party × escrow table of
// flows.
func NewPlan(s *Spec) *Plan {
	n := len(s.Transfers)
	pl := &Plan{
		TransferKeys: make([]string, n),
		addrs:        s.Parties,
	}
	// firsts holds the first transfer naming each escrow, sorted by key;
	// an escrow inserted ahead of others renumbers the arcs already seen.
	type arc struct{ from, to, esc int }
	var arcBuf [32]arc
	var firstBuf [16]int
	arcs, firsts := arcBuf[:0], firstBuf[:0]
	for i := range s.Transfers {
		t := &s.Transfers[i]
		e := slices.IndexFunc(firsts, func(f int) bool { return isKey(pl.TransferKeys[f], &t.Asset) })
		if e < 0 {
			key := t.Asset.Key()
			pl.TransferKeys[i] = key
			e, _ = slices.BinarySearchFunc(firsts, key, func(f int, key string) int {
				return strings.Compare(pl.TransferKeys[f], key)
			})
			firsts = slices.Insert(firsts, e, i)
			for k := range arcs {
				if arcs[k].esc >= e {
					arcs[k].esc++
				}
			}
		}
		arcs = append(arcs, arc{pl.index(t.From), pl.index(t.To), e})
	}
	m := len(firsts)
	pl.Escrows, pl.EscrowKeys = make([]AssetRef, m), make([]string, m)
	for e, f := range firsts {
		pl.Escrows[e], pl.EscrowKeys[e] = s.Transfers[f].Asset, pl.TransferKeys[f]
	}
	var flowBuf [64]flow
	flows := append(flowBuf[:0], make([]flow, len(pl.addrs)*m)...)
	for i, a := range arcs {
		pl.TransferKeys[i] = pl.EscrowKeys[a.esc]
		var amt uint64
		if t := &s.Transfers[i]; t.Asset.Kind == Fungible {
			amt = t.Asset.Amount
		}
		out, in := &flows[a.from*m+a.esc], &flows[a.to*m+a.esc]
		out.out, out.sends, out.outLeg = out.out+amt, out.sends+1, -1
		in.in, in.inLeg = in.in+amt, -1
		for _, f := range [2]*flow{out, in} {
			if f.first == 0 {
				f.first = int32(i + 1)
			}
		}
	}

	// Carve every party's slices, then open legs in transfer order.
	var total tally
	for _, f := range flows {
		total.add(s, f)
	}
	sends, legs := make([]int, total.sends), make([]Leg, total.in+total.out)
	chains, obs := make([]chain.ID, total.touched), make([]Obligation, total.owes)
	pl.parties = make([]PartyPlan, len(pl.addrs))
	for p := range pl.parties {
		var c tally
		for _, f := range flows[p*m : (p+1)*m] {
			c.add(s, f)
		}
		pl.parties[p] = PartyPlan{
			Incoming: take(&legs, c.in), Outgoing: take(&legs, c.out),
			Obligations: take(&obs, c.owes), Sends: take(&sends, c.sends),
			Chains: take(&chains, c.touched),
		}
	}
	for i, a := range arcs {
		t := &s.Transfers[i]
		from, to := &pl.parties[a.from], &pl.parties[a.to]
		from.Sends = append(from.Sends, i)
		if f := &flows[a.from*m+a.esc]; f.outLeg < 0 {
			from.Outgoing = append(from.Outgoing, Leg{t.Asset, pl.EscrowKeys[a.esc], f.in, f.out, nil})
			f.outLeg = int32(len(from.Outgoing))
		}
		f := &flows[a.to*m+a.esc]
		if f.inLeg < 0 {
			to.Incoming = append(to.Incoming, Leg{t.Asset, pl.EscrowKeys[a.esc], f.in, f.out, nil})
			f.inLeg = int32(len(to.Incoming))
		}
		if t.Asset.Kind == NonFungible {
			leg := &to.Incoming[f.inLeg-1]
			j, _ := slices.BinarySearch(leg.TokensIn, t.Asset.ID)
			leg.TokensIn = slices.Insert(leg.TokensIn, j, t.Asset.ID)
		}
	}
	for p := range pl.parties {
		pp := &pl.parties[p]
		for e, f := range flows[p*m : (p+1)*m] {
			if f.first == 0 {
				continue
			}
			c := pl.Escrows[e].Chain
			if j, found := slices.BinarySearch(pp.Chains, c); !found {
				pp.Chains = slices.Insert(pp.Chains, j, c)
			}
			if f.inLeg > 0 && f.outLeg > 0 {
				pp.Outgoing[f.outLeg-1].TokensIn = pp.Incoming[f.inLeg-1].TokensIn
			}
			if ob, owes := pl.obligation(s, pp, e, f); owes {
				pp.Obligations = append(pp.Obligations, ob)
			}
		}
	}
	return pl
}

// take cuts the next k elements off *slab, as an empty slice of
// capacity k.
func take[T any](slab *[]T, k int) []T {
	s := (*slab)[:0:k]
	*slab = (*slab)[k:]
	return s
}

// isKey reports whether key is a.Key(), without building the string.
func isKey(key string, a *AssetRef) bool {
	c := len(a.Chain)
	return len(key) == c+1+len(a.Escrow) && key[:c] == string(a.Chain) &&
		key[c] == '/' && key[c+1:] == string(a.Escrow)
}

// index returns p's dense index, appending a party the spec's list lacks.
func (pl *Plan) index(p chain.Addr) int {
	if i := slices.Index(pl.addrs, p); i >= 0 {
		return i
	}
	pl.addrs = append(pl.addrs[:len(pl.addrs):len(pl.addrs)], p)
	return len(pl.addrs) - 1
}

// obligation derives what a party must escrow at escrow e (§4.1).
// Fungible: the shortfall between what it sends and what it receives
// there. Non-fungible: the tokens it sends without first receiving them
// (it is their original owner). The escrow's kind is that of the
// party's first transfer there.
func (pl *Plan) obligation(s *Spec, pp *PartyPlan, e int, f flow) (Obligation, bool) {
	ref := s.Transfers[f.first-1].Asset
	ref.Amount, ref.ID = 0, ""
	ob := Obligation{Asset: ref, Key: pl.EscrowKeys[e]}
	if ref.Kind == Fungible {
		ob.Amount = f.out - min(f.in, f.out)
		return ob, ob.Amount > 0
	}
	if f.outLeg == 0 {
		return ob, false
	}
	var got []string
	if f.inLeg > 0 {
		got = pp.Incoming[f.inLeg-1].TokensIn
	}
	for _, i := range pp.Sends {
		t := &s.Transfers[i]
		if t.Asset.Kind != NonFungible || pl.TransferKeys[i] != ob.Key {
			continue
		}
		if _, in := slices.BinarySearch(got, t.Asset.ID); in {
			continue
		}
		if j, dup := slices.BinarySearch(ob.Tokens, t.Asset.ID); !dup {
			ob.Tokens = slices.Insert(ob.Tokens, j, t.Asset.ID)
		}
	}
	return ob, len(ob.Tokens) > 0
}

// For returns p's share of the deal; a party the deal never mentions has
// an empty one.
func (pl *Plan) For(p chain.Addr) *PartyPlan {
	if i := slices.Index(pl.addrs, p); i >= 0 {
		return &pl.parties[i]
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

// Flow returns the fungible amounts the party receives and sends at an
// escrow key; zero at an escrow it does not touch.
func (pp *PartyPlan) Flow(key string) (in, out uint64) {
	for _, legs := range [2][]Leg{pp.Incoming, pp.Outgoing} {
		for i := range legs {
			if legs[i].Key == key {
				return legs[i].FungibleIn, legs[i].FungibleOut
			}
		}
	}
	return 0, 0
}
