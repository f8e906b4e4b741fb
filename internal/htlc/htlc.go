// Package htlc implements the baseline the paper positions deals against
// (§8): atomic cross-chain swaps built from hashed timelock contracts, in
// the style of Herlihy's PODC'18 protocol.
//
// In a swap, each party transfers an asset it owns directly to another
// party and halts — no tentative pass-through transfers. A leader
// generates a secret s and publishes H(s); contracts are deployed along
// the swap digraph with decreasing timeouts; once all are in place the
// leader claims its incoming asset by revealing s, and the preimage
// propagates backwards, unlocking every contract.
//
// The package exists for two comparisons the paper makes:
//
//   - expressiveness: Supports rejects the broker and auction deals — a
//     party that enters with nothing to swap (Alice) cannot be a swap
//     participant, which is the paper's core motivation for deals;
//   - cost: claims verify one hash preimage instead of signature chains,
//     so the commit-phase gas profile differs from the timelock deal
//     protocol (measured in the benchmark harness).
package htlc

import (
	"errors"
	"fmt"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

// Contract methods.
const (
	MethodLock   = "lock"
	MethodClaim  = "claim"
	MethodRefund = "refund"
)

// Event kinds.
const (
	// EventLocked is emitted when an asset is locked; data is LockedEvent.
	EventLocked = "htlc-locked"
	// EventClaimed is emitted on a successful claim; data is
	// ClaimedEvent, which carries the preimage — this is how the secret
	// propagates through the swap.
	EventClaimed = "htlc-claimed"
	// EventRefunded is emitted when a lock is refunded.
	EventRefunded = "htlc-refunded"
)

// LockArgs creates a hashed timelock on the sender's asset.
type LockArgs struct {
	ID       string   // lock identifier, unique per contract
	Hash     [32]byte // H(s)
	Claimant chain.Addr
	Deadline sim.Time
	Amount   uint64 // fungible
	TokenID  string // non-fungible
}

// ClaimArgs redeems a lock with the preimage.
type ClaimArgs struct {
	ID       string
	Preimage []byte
}

// RefundArgs returns a timed-out lock to its creator.
type RefundArgs struct {
	ID string
}

// LockedEvent reports a new lock.
type LockedEvent struct {
	ID       string
	Hash     [32]byte
	Claimant chain.Addr
	Refundee chain.Addr
	Deadline sim.Time
	Amount   uint64
	TokenID  string
}

// ClaimedEvent reports a redemption, revealing the preimage.
type ClaimedEvent struct {
	ID       string
	Preimage []byte
	Claimant chain.Addr
}

// RefundedEvent reports a refund.
type RefundedEvent struct {
	ID       string
	Refundee chain.Addr
}

// Errors.
var (
	ErrLockExists   = errors.New("htlc: lock id already used")
	ErrUnknownLock  = errors.New("htlc: no such lock")
	ErrSettled      = errors.New("htlc: lock already settled")
	ErrWrongSecret  = errors.New("htlc: preimage does not match hash")
	ErrNotClaimant  = errors.New("htlc: sender is not the claimant")
	ErrPastDeadline = errors.New("htlc: deadline has passed")
	ErrTooEarly     = errors.New("htlc: refund before deadline")
)

// lockState is one hashed timelock.
type lockState struct {
	LockArgs
	refundee chain.Addr
	settled  bool
}

// Manager is the HTLC contract: it escrows assets of one token contract
// under hash locks.
type Manager struct {
	Token chain.Addr
	Kind  deal.Kind
	locks map[string]*lockState
}

// New creates an HTLC manager for a token contract.
func New(tok chain.Addr, kind deal.Kind) *Manager {
	return &Manager{Token: tok, Kind: kind, locks: make(map[string]*lockState)}
}

// Invoke implements chain.Contract.
func (m *Manager) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodLock:
		a, ok := args.(LockArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.lock(env, a)
	case MethodClaim:
		a, ok := args.(ClaimArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.claim(env, a)
	case MethodRefund:
		a, ok := args.(RefundArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.refund(env, a)
	default:
		return nil, chain.ErrUnknownMethod
	}
}

// lock pulls the sender's asset into the contract under a hash lock.
func (m *Manager) lock(env *chain.Env, a LockArgs) error {
	if _, exists := m.locks[a.ID]; exists {
		return fmt.Errorf("%w: %s", ErrLockExists, a.ID)
	}
	pull := token.TransferFromArgs{From: env.Sender(), To: env.Self()}
	if m.Kind == deal.Fungible {
		pull.Amount = a.Amount
	} else {
		pull.Token = a.TokenID
	}
	if _, err := env.Call(m.Token, token.MethodTransferFrom, pull); err != nil {
		return err
	}
	m.locks[a.ID] = &lockState{LockArgs: a, refundee: env.Sender()}
	env.Write(1)
	env.Emit(EventLocked, LockedEvent{
		ID: a.ID, Hash: a.Hash, Claimant: a.Claimant, Refundee: env.Sender(),
		Deadline: a.Deadline, Amount: a.Amount, TokenID: a.TokenID,
	})
	return nil
}

// claim redeems a lock: correct preimage, before the deadline, by the
// designated claimant. Note the cost profile: one hash evaluation and the
// payout writes — no signature verification.
func (m *Manager) claim(env *chain.Env, a ClaimArgs) error {
	l, ok := m.locks[a.ID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLock, a.ID)
	}
	if l.settled {
		return ErrSettled
	}
	if env.Now() >= l.Deadline {
		return fmt.Errorf("%w: now=%d deadline=%d", ErrPastDeadline, env.Now(), l.Deadline)
	}
	if env.Sender() != l.Claimant {
		return fmt.Errorf("%w: %s", ErrNotClaimant, env.Sender())
	}
	env.Arith(1) // the hash evaluation
	if sig.Hash(a.Preimage) != l.Hash {
		return ErrWrongSecret
	}
	if err := m.payout(env, l, l.Claimant); err != nil {
		return err
	}
	l.settled = true
	env.Write(1)
	env.Emit(EventClaimed, ClaimedEvent{ID: a.ID, Preimage: a.Preimage, Claimant: l.Claimant})
	return nil
}

// refund returns a timed-out lock to its creator. Anyone may poke it.
func (m *Manager) refund(env *chain.Env, a RefundArgs) error {
	l, ok := m.locks[a.ID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLock, a.ID)
	}
	if l.settled {
		return ErrSettled
	}
	if env.Now() < l.Deadline {
		return fmt.Errorf("%w: now=%d deadline=%d", ErrTooEarly, env.Now(), l.Deadline)
	}
	if err := m.payout(env, l, l.refundee); err != nil {
		return err
	}
	l.settled = true
	env.Write(1)
	env.Emit(EventRefunded, RefundedEvent{ID: a.ID, Refundee: l.refundee})
	return nil
}

// payout releases the locked asset to recipient.
func (m *Manager) payout(env *chain.Env, l *lockState, to chain.Addr) error {
	out := token.TransferArgs{To: to}
	if m.Kind == deal.Fungible {
		out.Amount = l.Amount
	} else {
		out.Token = l.TokenID
	}
	_, err := env.Call(m.Token, token.MethodTransfer, out)
	return err
}
