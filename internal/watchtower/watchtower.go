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

// onEvent mirrors the compliant forwarding rule on the client's behalf.
func (t *Tower) onEvent(ev chain.Event) {
	if ev.Kind != timelock.EventVoteAccepted {
		return
	}
	data, ok := ev.Data.(timelock.VoteEvent)
	if !ok || data.Deal != t.cfg.Spec.ID {
		return
	}
	seenAt := ""
	for _, in := range t.mine.Incoming {
		if in.Asset.Chain == ev.Chain && in.Asset.Escrow == ev.Contract {
			seenAt = in.Key
			t.mark(t.acceptedAt, seenAt, data.Voter)
		}
	}
	if data.Vote.Contains(string(t.cfg.Client)) {
		return
	}
	for _, in := range t.mine.Incoming {
		a, key := in.Asset, in.Key
		if key == seenAt || t.acceptedAt[key][data.Voter] || t.forwarded[key][data.Voter] {
			continue
		}
		t.mark(t.forwarded, key, data.Voter)
		c, ok := t.cfg.Chains[a.Chain]
		if !ok {
			continue
		}
		t.Forwards++
		c.Submit(&chain.Tx{
			Sender:   t.cfg.Client, // acting in the client's name
			Contract: a.Escrow,
			Method:   timelock.MethodCommit,
			Label:    party.LabelCommit,
			Args: timelock.CommitArgs{
				Deal: t.cfg.Spec.ID,
				Vote: data.Vote.ForwardWith(c.Memo(), string(t.cfg.Client), t.cfg.ClientKeys),
			},
			OnReceipt: t.observeReceipt,
		})
	}
}

// pokeRefunds reclaims the client's deposits after the deal timeout.
func (t *Tower) pokeRefunds() {
	for _, ob := range t.mine.Obligations {
		c, ok := t.cfg.Chains[ob.Asset.Chain]
		if !ok {
			continue
		}
		res, err := c.Query(ob.Asset.Escrow, escrow.MethodStatus, t.cfg.Spec.ID)
		if err != nil {
			continue
		}
		if v, ok := res.(escrow.View); !ok || v.Status() != escrow.StatusActive {
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
