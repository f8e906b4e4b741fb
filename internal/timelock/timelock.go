// Package timelock implements the timelock commit protocol of §5: a fully
// decentralized commit protocol for cross-chain deals under synchronous
// communication.
//
// Escrowed assets are released when the escrow contract has accepted a
// commit vote from every party; there are no explicit abort votes.
// Timeouts guarantee weak liveness: if some party's vote never arrives,
// the contract refunds its assets at t0 + N·Δ.
//
// The subtle part is the per-vote timeout. A vote from party X arriving
// with path signature p is accepted only if it arrives before
// t0 + |p|·Δ: each forwarding hop buys one extra Δ, reflecting the
// worst-case time for a motivated party to observe a vote on one chain
// and forward it to another. §5 shows that naive per-party timeouts are
// contradictory; the naive variant is available behind FixedTimeout for
// the ablation experiment that demonstrates the resulting safety
// violation.
package timelock

import (
	"errors"
	"fmt"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
)

// Contract methods added on top of the escrow.Manager methods.
const (
	MethodCommit = "commit" // commit(D, v, p) — a vote with path signature
	MethodRefund = "refund" // poke the contract to refund after timeout
)

// Event kinds.
const (
	// EventVoteAccepted is emitted when the contract accepts a vote; the
	// data is the CommitArgs the accepted transaction carried, the very
	// interface value, so observers can forward the full path signature
	// (never written, see package sig). Motivated parties observe these
	// on their outgoing assets' chains and forward them to their incoming
	// ones.
	EventVoteAccepted = "vote-accepted"
)

// Info is the timelock Dinfo stored with each deal registration: the
// commit-phase start time and the synchrony bound. The party list is
// stored alongside by the escrow layer, and its length N sets the refund
// floor t0 + N·Δ (see handleRefund).
type Info struct {
	T0    sim.Time
	Delta sim.Duration
}

// CommitArgs is the argument to MethodCommit.
type CommitArgs struct {
	Deal string
	Vote sig.PathSig
}

// Topic names the deal, so mempool observers can watch one deal's votes
// (see chain.PendingTx.Topic).
func (a CommitArgs) Topic() string { return a.Deal }

// RefundArgs is the argument to MethodRefund.
type RefundArgs struct {
	Deal string
}

// Errors specific to the timelock manager.
var (
	ErrVoteTooLate     = errors.New("timelock: vote arrived after its path timeout")
	ErrNotVoter        = errors.New("timelock: voter not in the deal's party list")
	ErrSignerNotParty  = errors.New("timelock: path signer not in the deal's party list")
	ErrDuplicateVote   = errors.New("timelock: vote from this party already accepted")
	ErrTooEarlyRefund  = errors.New("timelock: refund requested before the deal's timeout")
	ErrBadInfo         = errors.New("timelock: deal info is not timelock info")
	ErrWrongDeal       = errors.New("timelock: vote is for a different deal")
	ErrMissingTimeouts = errors.New("timelock: non-positive t0 or delta")
)

// duplicateVoteError rejects a second vote by voter. Its text, the one
// fmt.Errorf("%w: %s", ErrDuplicateVote, voter) gives, is built only when
// read: a vote relayed by several parties meets it at every escrow that
// already holds the voter's vote.
type duplicateVoteError struct{ voter chain.Addr }

func (e *duplicateVoteError) Error() string {
	return ErrDuplicateVote.Error() + ": " + string(e.voter)
}

func (e *duplicateVoteError) Unwrap() error { return ErrDuplicateVote }

// Manager is the TimelockManager contract of Figure 5: an escrow manager
// whose assets are released by unanimous path-signed votes and refunded
// by timeout.
type Manager struct {
	*escrow.Manager
	// FixedTimeout switches to the broken naive rule (every vote must
	// arrive before t0 + Δ regardless of path length). Exists only to
	// reproduce §5's impossibility argument experimentally.
	FixedTimeout bool

	votes map[string]map[chain.Addr]bool // deal -> voters accepted
}

// New creates a timelock escrow manager over the given bookkeeping.
func New(book *escrow.Book) *Manager {
	return &Manager{
		Manager: escrow.NewManager(book),
		votes:   make(map[string]map[chain.Addr]bool),
	}
}

// Reset empties the manager and its book, leaving what
// New(escrow.NewBook(tok, kind)) builds, with the storage of its maps
// kept. The vote ledger and the deal states are dropped, not reused.
func (m *Manager) Reset(tok chain.Addr, kind deal.Kind) {
	m.Book.Reset(tok, kind)
	clear(m.votes)
	m.InfoEqual, m.FixedTimeout = nil, false
}

// Invoke implements chain.Contract.
func (m *Manager) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodCommit:
		a, ok := args.(CommitArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.handleCommit(env, a, args)
	case MethodRefund:
		a, ok := args.(RefundArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.handleRefund(env, a)
	default:
		return m.Manager.Invoke(env, method, args)
	}
}

// handleCommit is the commit function of Figure 5. args is the
// interface value a came from: an accepted vote's event publishes it
// unchanged rather than boxing a again.
func (m *Manager) handleCommit(env *chain.Env, a CommitArgs, args any) error {
	st := m.Deal(a.Deal)
	if st == nil {
		return fmt.Errorf("%w: %s", escrow.ErrUnknownDeal, a.Deal)
	}
	if st.Status != escrow.StatusActive {
		return escrow.NotActive(a.Deal, st.Status)
	}
	info, ok := st.Info.(Info)
	if !ok {
		return ErrBadInfo
	}
	vote := a.Vote
	if vote.Deal != a.Deal {
		return ErrWrongDeal
	}
	voter := chain.Addr(vote.Voter)

	// require(now < start + path.length * DELTA) — not timed out.
	deadline := info.T0 + sim.Time(vote.Len())*info.Delta
	if m.FixedTimeout {
		deadline = info.T0 + info.Delta // the broken naive rule
	}
	if env.Now() >= deadline {
		return fmt.Errorf("%w: now=%d deadline=%d |p|=%d", ErrVoteTooLate, env.Now(), deadline, vote.Len())
	}
	// require(parties.contains(voter)) — legit voters only.
	if !containsAddr(st.Parties, voter) {
		return fmt.Errorf("%w: %s", ErrNotVoter, voter)
	}
	// require(!voted.contains(voter)) — no duplicate votes.
	accepted := m.votes[a.Deal]
	if accepted == nil {
		accepted = make(map[chain.Addr]bool)
		m.votes[a.Deal] = accepted
	}
	if accepted[voter] {
		return &duplicateVoteError{voter}
	}
	// require(checkUnique(signers)) and signers ⊆ plist.
	for i := range vote.Hops {
		if s := vote.Hops[i].Signer; !containsAddr(st.Parties, chain.Addr(s)) {
			return fmt.Errorf("%w: %s", ErrSignerNotParty, s)
		}
	}
	// Verify every signature in the path (the expensive step; |p|
	// verifications at 3000 gas each). Duplicate-signer detection is part
	// of path verification.
	if err := env.VerifyPath(vote); err != nil {
		return err
	}

	// voted.push(voter) — remember who voted.
	accepted[voter] = true
	env.Write(1)
	env.Emit(EventVoteAccepted, args)

	// Release when every party has voted.
	if len(accepted) == len(st.Parties) {
		if err := m.FinalizeCommit(env, a.Deal); err != nil {
			return err
		}
		env.Emit(escrow.EventCommitted, escrow.OutcomeEvent{Deal: a.Deal, Status: escrow.StatusCommitted})
	}
	return nil
}

// handleRefund refunds escrowed assets once the overall deal timeout
// t0 + N·Δ has passed without unanimous votes, N = len(parties). Anyone
// may poke it; in practice compliant parties poke the contracts holding
// their assets (weak liveness), and watchtowers may poke on behalf of
// others.
//
// The floor is N, not the deal digraph's relay depth D, because votes
// are accepted until t0 + |p|·Δ and a path may carry up to N distinct
// signers. A compliant party that sees a |p| = k vote accepted at its
// outgoing escrow has until t0 + (k+1)·Δ to forward it to its incoming
// ones, and k+1 can reach N. A floor at D < N lets colluders land
// |p| = D votes at one escrow just before t0 + D·Δ and refund another at
// t0 + D·Δ, before the forward can arrive (§5).
func (m *Manager) handleRefund(env *chain.Env, a RefundArgs) error {
	st := m.Deal(a.Deal)
	if st == nil {
		return fmt.Errorf("%w: %s", escrow.ErrUnknownDeal, a.Deal)
	}
	if st.Status != escrow.StatusActive {
		return escrow.NotActive(a.Deal, st.Status)
	}
	info, ok := st.Info.(Info)
	if !ok {
		return ErrBadInfo
	}
	deadline := info.T0 + sim.Time(len(st.Parties))*info.Delta
	if env.Now() < deadline {
		return fmt.Errorf("%w: now=%d deadline=%d", ErrTooEarlyRefund, env.Now(), deadline)
	}
	if err := m.FinalizeAbort(env, a.Deal); err != nil {
		return err
	}
	env.Emit(escrow.EventAborted, escrow.OutcomeEvent{Deal: a.Deal, Status: escrow.StatusAborted})
	return nil
}

func containsAddr(list []chain.Addr, a chain.Addr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}
