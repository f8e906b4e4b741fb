package htlc

import (
	"fmt"
	"slices"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
)

// Supports reports whether a deal spec is swap-shaped and therefore
// expressible with hashed timelock contracts: every party's escrow
// obligations must cover its outgoing transfers in full. A broker like
// Alice — whose outgoing assets are funded by her incoming ones — fails
// this check, which is the paper's central motivating example (§1.1, §8:
// "Alice starts with nothing to swap").
func Supports(spec *deal.Spec) error {
	plan := deal.NewPlan(spec)
	for _, p := range spec.Parties {
		pp := plan.For(p)
		for _, leg := range pp.Outgoing {
			var covered uint64
			if ob := pp.Obligation(leg.Key); ob != nil {
				covered = ob.Amount
			}
			if covered < leg.FungibleOut {
				return fmt.Errorf("htlc: party %s funds %d of %d at %s from incoming transfers; not swap-shaped",
					p, leg.FungibleOut-covered, leg.FungibleOut, leg.Key)
			}
		}
		for _, i := range pp.Sends {
			t, key := spec.Transfers[i], plan.TransferKeys[i]
			if t.Asset.Kind != deal.NonFungible {
				continue
			}
			if ob := pp.Obligation(key); ob == nil || !slices.Contains(ob.Tokens, t.Asset.ID) {
				return fmt.Errorf("htlc: party %s passes token %s through at %s; not swap-shaped", p, t.Asset.ID, key)
			}
		}
	}
	return nil
}

// SwapConfig wires the swap protocol runner.
type SwapConfig struct {
	Spec   *deal.Spec
	Chains map[chain.ID]*chain.Chain
	// Managers maps escrow keys to the HTLC contract addresses deployed
	// for each asset (the swap's counterpart of escrow managers).
	Managers map[string]chain.Addr
	Sched    *sim.Scheduler
	// Delta is the per-hop synchrony bound used to space the deadlines.
	Delta sim.Duration
	// Behaviors configures deviations, keyed by party.
	Behaviors map[chain.Addr]SwapBehavior
}

// SwapBehavior encodes swap-protocol deviations.
type SwapBehavior struct {
	SkipLock      bool // never deploy the outgoing lock
	SkipClaim     bool // never claim (leader: never reveal the secret)
	SkipRefund    bool // never reclaim a timed-out lock
	CrashAt       sim.Time
	DelayClaim    sim.Duration
	WrongPreimage bool // claim with garbage
}

// Swap runs the leader-based circular swap protocol over the deal's
// transfers. Transfers are ordered by the spec; the leader is the From of
// the first transfer. Each transfer i becomes a lock with deadline
// start + (2n − i)·Δ: deployment proceeds in spec order, the secret
// propagates in reverse, and every claimant enjoys at least Δ of margin
// over the next deadline, mirroring Herlihy'18.
type Swap struct {
	cfg    SwapConfig
	secret []byte
	hash   [32]byte
	leader chain.Addr
	start  sim.Time

	locked  map[int]bool // transfer index -> lock observed
	settled map[int]bool
	crashed map[chain.Addr]bool
	unsubs  []func()

	// Outcome observability.
	Claims  int
	Refunds int
	// Rejects counts transactions the chain executed with an error —
	// e.g. a claim that raced a refund past its deadline. Benign for
	// the protocol, but evidence a gas comparison must not lose.
	Rejects int
}

// NewSwap validates shape and prepares the runner.
func NewSwap(cfg SwapConfig) (*Swap, error) {
	if err := Supports(cfg.Spec); err != nil {
		return nil, err
	}
	if len(cfg.Spec.Transfers) == 0 {
		return nil, fmt.Errorf("htlc: empty swap")
	}
	s := &Swap{
		cfg:     cfg,
		leader:  cfg.Spec.Transfers[0].From,
		locked:  make(map[int]bool),
		settled: make(map[int]bool),
		crashed: make(map[chain.Addr]bool),
	}
	seed := sig.HashStrings("htlc-secret", cfg.Spec.ID)
	s.secret = seed[:]
	s.hash = sig.Hash(s.secret)
	return s, nil
}

// lockID names the lock for transfer index i.
func (s *Swap) lockID(i int) string {
	return fmt.Sprintf("%s/lock%d", s.cfg.Spec.ID, i)
}

// deadline computes transfer i's lock deadline.
func (s *Swap) deadline(i int) sim.Time {
	n := len(s.cfg.Spec.Transfers)
	return s.start + sim.Time(2*n-i)*s.cfg.Delta
}

// Start launches the protocol at the current simulation time.
func (s *Swap) Start() {
	s.start = s.cfg.Sched.Now()
	for p, b := range s.cfg.Behaviors {
		if b.CrashAt > 0 {
			p := p
			s.cfg.Sched.At(b.CrashAt, func() { s.crashed[p] = true })
		}
	}
	for _, c := range s.chainSet() {
		s.unsubs = append(s.unsubs, c.Subscribe(s.onEvent))
	}
	// The leader (owner of transfer 0) deploys first.
	s.deployLock(0)
	// Refund pokes for every lock owner.
	for i, t := range s.cfg.Spec.Transfers {
		i, t := i, t
		if s.cfg.Behaviors[t.From].SkipRefund {
			continue
		}
		s.cfg.Sched.At(s.deadline(i)+s.cfg.Delta/2, func() {
			if s.crashed[t.From] || s.settled[i] || !s.locked[i] {
				return
			}
			s.submit(t, MethodRefund, party.LabelAbort, RefundArgs{ID: s.lockID(i)})
		})
	}
}

// Stop detaches the runner.
func (s *Swap) Stop() {
	for _, u := range s.unsubs {
		u()
	}
	s.unsubs = nil
}

// chainSet returns the distinct chains of the swap, deterministically.
func (s *Swap) chainSet() []*chain.Chain {
	seen := make(map[chain.ID]bool)
	var out []*chain.Chain
	for _, t := range s.cfg.Spec.Transfers {
		if !seen[t.Asset.Chain] {
			seen[t.Asset.Chain] = true
			if c, ok := s.cfg.Chains[t.Asset.Chain]; ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// deployLock publishes the lock for transfer i, if its owner complies.
func (s *Swap) deployLock(i int) {
	t := s.cfg.Spec.Transfers[i]
	b := s.cfg.Behaviors[t.From]
	if b.SkipLock || s.crashed[t.From] {
		return
	}
	args := LockArgs{
		ID:       s.lockID(i),
		Hash:     s.hash,
		Claimant: t.To,
		Deadline: s.deadline(i),
	}
	if t.Asset.Kind == deal.Fungible {
		args.Amount = t.Asset.Amount
	} else {
		args.TokenID = t.Asset.ID
	}
	s.submit(t, MethodLock, party.LabelEscrow, args)
}

// submit sends a transaction from the transfer's owner to the HTLC
// contract for its asset.
func (s *Swap) submit(t deal.Transfer, method, label string, args any) {
	c, ok := s.cfg.Chains[t.Asset.Chain]
	if !ok {
		return
	}
	sender := t.From
	if method == MethodClaim {
		sender = t.To
	}
	c.Submit(&chain.Tx{
		Sender:   sender,
		Contract: s.cfg.Managers[t.Asset.Key()],
		Method:   method,
		Label:    label,
		Args:     args,
		OnReceipt: func(r *chain.Receipt) {
			if r.Err != nil {
				s.Rejects++
			}
		},
	})
}

// onEvent drives the protocol forward from observed chain events.
func (s *Swap) onEvent(ev chain.Event) {
	switch ev.Kind {
	case EventLocked:
		data := ev.Data.(LockedEvent)
		i, ok := s.lockIndex(data.ID)
		if !ok {
			return
		}
		s.locked[i] = true
		// Followers deploy after validating the previous lock; the last
		// lock in place lets the leader claim its incoming transfer.
		if i+1 < len(s.cfg.Spec.Transfers) {
			next := s.cfg.Spec.Transfers[i+1]
			if !s.crashed[next.From] && s.validateLock(i, data) {
				s.deployLock(i + 1)
			}
			return
		}
		// All locks deployed: the leader claims the final transfer
		// (whose recipient is the leader in a circular swap) by
		// revealing the secret.
		last := s.cfg.Spec.Transfers[i]
		if last.To != s.leader {
			return
		}
		s.tryClaim(i, s.secret)

	case EventClaimed:
		data := ev.Data.(ClaimedEvent)
		i, ok := s.lockIndex(data.ID)
		if !ok {
			return
		}
		s.settled[i] = true
		s.Claims++
		// The preimage is now public: the owner of lock i claims its own
		// incoming transfer, lock i−1.
		if i == 0 {
			return
		}
		s.tryClaim(i-1, data.Preimage)

	case EventRefunded:
		data := ev.Data.(RefundedEvent)
		if i, ok := s.lockIndex(data.ID); ok {
			s.settled[i] = true
			s.Refunds++
		}
	}
}

// tryClaim submits a claim for transfer i by its recipient.
func (s *Swap) tryClaim(i int, preimage []byte) {
	t := s.cfg.Spec.Transfers[i]
	b := s.cfg.Behaviors[t.To]
	if b.SkipClaim || s.crashed[t.To] {
		return
	}
	pre := preimage
	if b.WrongPreimage {
		pre = []byte("garbage")
	}
	submit := func() {
		s.submit(t, MethodClaim, party.LabelCommit, ClaimArgs{ID: s.lockID(i), Preimage: pre})
	}
	if b.DelayClaim > 0 {
		s.cfg.Sched.After(b.DelayClaim, submit)
		return
	}
	submit()
}

// validateLock is the follower's check that the observed lock matches the
// announced swap: right hash, right claimant, right amount, deadline not
// shortened.
func (s *Swap) validateLock(i int, data LockedEvent) bool {
	t := s.cfg.Spec.Transfers[i]
	if data.Hash != s.hash || data.Claimant != t.To {
		return false
	}
	if data.Deadline < s.deadline(i) {
		return false
	}
	if t.Asset.Kind == deal.Fungible {
		return data.Amount >= t.Asset.Amount
	}
	return data.TokenID == t.Asset.ID
}

// lockIndex resolves a lock id back to its transfer index.
func (s *Swap) lockIndex(id string) (int, bool) {
	for i := range s.cfg.Spec.Transfers {
		if s.lockID(i) == id {
			return i, true
		}
	}
	return 0, false
}
