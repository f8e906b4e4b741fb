// Package watchtower implements the §5.3 mitigation for the timelock
// protocol's offline window: "the Lightning payment network employs
// watchtowers, parties that monitor escrow contracts and step in to act
// on the behalf of off-line parties in danger of losing assets."
//
// A watchtower holds a delegation from its client — in this model the
// client's signing key, so the tower can forward votes in the client's
// name — and mirrors the client's motivated behavior: it watches the
// chains the client should be watching, records votes accepted at the
// client's incoming escrows, and forwards newly observed votes there.
// It also pokes refunds after the deal's timeout, so a client that
// crashes after escrowing does not leave assets locked.
//
// The tower is deliberately stateless about the client's validation
// decision: it never casts the client's own commit vote (that would usurp
// the client's judgment about whether the deal is satisfactory); it only
// relays votes other parties already made public and reclaims timed-out
// escrows.
package watchtower

import (
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
)

// Config wires a watchtower to its client and environment.
type Config struct {
	// Client is the party the tower protects.
	Client chain.Addr
	// ClientKeys is the delegated signing key used to forward votes in
	// the client's name.
	ClientKeys sig.KeyPair
	Spec       *deal.Spec
	Chains     map[chain.ID]*chain.Chain
	Sched      *sim.Scheduler
}

// Tower monitors escrow contracts on behalf of one client.
type Tower struct {
	cfg        Config
	mine       *deal.PartyPlan // the client's share of the deal
	acceptedAt map[string]map[chain.Addr]bool
	forwarded  map[string]map[chain.Addr]bool
	held       []sig.PathSig // votes waiting for an escrow's registration

	// Forwards counts votes the tower relayed (observability).
	Forwards int
	// Pokes counts refund transactions the tower submitted.
	Pokes int
}

// New creates a tower; call Start to begin watching.
func New(cfg Config) *Tower {
	return &Tower{
		cfg:        cfg,
		mine:       deal.NewPlan(cfg.Spec).For(cfg.Client),
		acceptedAt: make(map[string]map[chain.Addr]bool),
		forwarded:  make(map[string]map[chain.Addr]bool),
	}
}

// Start subscribes to the client's relevant chains and schedules the
// refund poke.
func (t *Tower) Start() {
	for _, id := range t.mine.Chains {
		c, ok := t.cfg.Chains[id]
		if !ok {
			continue
		}
		c.Subscribe(t.onEvent)
	}

	n := sim.Time(len(t.cfg.Spec.Parties))
	pokeAt := t.cfg.Spec.T0 + (n+1)*t.cfg.Spec.Delta
	t.cfg.Sched.At(pokeAt, t.pokeRefunds)
}

// onEvent mirrors the compliant forwarding rule on the client's behalf:
// a vote accepted on one of the client's chains goes to the client's
// incoming escrows that lack it, and each escrow registered for the deal
// offers the votes held for escrows not registered yet again.
func (t *Tower) onEvent(ev chain.Event) {
	if ev.Topic != t.cfg.Spec.ID {
		return
	}
	switch ev.Kind {
	case escrow.EventEscrowed:
		for _, v := range t.held {
			t.forward(v, "")
		}
	case timelock.EventVoteAccepted:
		data, ok := ev.Data.(timelock.CommitArgs)
		if !ok || data.Deal != t.cfg.Spec.ID {
			return
		}
		voter := chain.Addr(data.Vote.Voter)
		seenAt := ""
		for _, in := range t.mine.Incoming {
			if in.Asset.Chain == ev.Chain && in.Asset.Escrow == ev.Contract {
				seenAt = in.Key
				t.mark(t.acceptedAt, seenAt, voter)
			}
		}
		if !data.Vote.Contains(string(t.cfg.Client)) {
			t.forward(data.Vote, seenAt)
		}
	}
}

// forward extends vote with the client's signature and submits it to
// every incoming escrow except seenAt that has neither accepted nor been
// sent the voter's vote. An escrow whose deal is not registered yet would
// reject the vote, and marking it sent would then keep the vote from it
// for good: the vote is held for it instead (one per voter, since any of
// a voter's votes serves) and offered again on the deal's next escrowed
// event.
func (t *Tower) forward(vote sig.PathSig, seenAt string) {
	voter := chain.Addr(vote.Voter)
	for _, in := range t.mine.Incoming {
		a, key := in.Asset, in.Key
		if key == seenAt || t.acceptedAt[key][voter] || t.forwarded[key][voter] {
			continue
		}
		c, ok := t.cfg.Chains[a.Chain]
		if !ok {
			continue
		}
		if v, ok := t.view(c, a); !ok || !v.Exists() {
			t.hold(vote)
			continue
		}
		t.mark(t.forwarded, key, voter)
		t.Forwards++
		c.Submit(&chain.Tx{
			Sender:    t.cfg.Client, // acting in the client's name
			Contract:  a.Escrow,
			Method:    timelock.MethodCommit,
			Label:     party.LabelCommit,
			Args:      timelock.CommitArgs{Deal: t.cfg.Spec.ID, Vote: vote.ForwardWith(c.Memo(), string(t.cfg.Client), t.cfg.ClientKeys)},
			OnReceipt: t.observeReceipt,
		})
	}
}

// hold keeps vote for a later escrowed event unless a vote by the same
// voter is held already.
func (t *Tower) hold(vote sig.PathSig) {
	for _, v := range t.held {
		if v.Voter == vote.Voter {
			return
		}
	}
	t.held = append(t.held, vote)
}

// view is the deal's state at the escrow holding a, if the contract
// answers.
func (t *Tower) view(c *chain.Chain, a deal.AssetRef) (escrow.View, bool) {
	res, err := c.Query(a.Escrow, escrow.MethodStatus, t.cfg.Spec.ID)
	if err != nil {
		return escrow.View{}, false
	}
	v, ok := res.(escrow.View)
	return v, ok
}

// pokeRefunds reclaims the client's deposits after the deal timeout.
func (t *Tower) pokeRefunds() {
	for _, ob := range t.mine.Obligations {
		c, ok := t.cfg.Chains[ob.Asset.Chain]
		if !ok {
			continue
		}
		if v, ok := t.view(c, ob.Asset); !ok || v.Status() != escrow.StatusActive {
			continue
		}
		t.Pokes++
		c.Submit(&chain.Tx{
			Sender:    t.cfg.Client,
			Contract:  ob.Asset.Escrow,
			Method:    timelock.MethodRefund,
			Label:     party.LabelAbort,
			Args:      timelock.RefundArgs{Deal: t.cfg.Spec.ID},
			OnReceipt: t.observeReceipt,
		})
	}
}

// observeReceipt receives the tower's receipts and ignores them: a
// rejected forward or poke is benign (someone else acted first). It stays
// non-nil because the chain draws a notify delay for every receipt it
// delivers, so dropping it would shift every later draw.
func (t *Tower) observeReceipt(*chain.Receipt) {}

// mark sets a nested map flag.
func (t *Tower) mark(m map[string]map[chain.Addr]bool, key string, voter chain.Addr) {
	mm := m[key]
	if mm == nil {
		mm = make(map[chain.Addr]bool)
		m[key] = mm
	}
	mm[voter] = true
}
