// Package escrow implements the EscrowManager of Figure 3 and the escrow
// semantics of §4: the contract itself becomes the owner of escrowed
// assets (preventing double-spending), while two maps track who would own
// each asset on commit (the paper's C map) and on abort (the A map).
//
//	escrow:   Pre  Owns(P,a)
//	          Post Owns(D,a) ∧ OwnsC(P,a) ∧ OwnsA(P,a)
//	transfer: Pre  Owns(D,a) ∧ OwnsC(P,a)
//	          Post OwnsC(Q,a)
//
// Book is the protocol-agnostic bookkeeping core; Manager wraps it as a
// deployable contract handling the escrow and transfer phases, which are
// identical in the timelock and CBC protocols. The protocol-specific
// commit machinery lives in the timelock and cbc packages, which embed
// Manager.
package escrow

import (
	"errors"
	"fmt"
	"slices"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

// Status is the lifecycle state of a deal at one escrow contract.
// Committing or aborting is local to each asset's blockchain (§4).
type Status int

// Deal statuses.
const (
	StatusUnknown Status = iota
	StatusActive
	StatusCommitted
	StatusAborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors returned by escrow operations.
var (
	ErrUnknownDeal      = errors.New("escrow: deal not registered")
	ErrNotParty         = errors.New("escrow: sender not in the deal's party list")
	ErrNotActive        = errors.New("escrow: deal is no longer active")
	ErrInsufficient     = errors.New("escrow: insufficient tentative ownership")
	ErrTokenHeld        = errors.New("escrow: token already escrowed in another deal")
	ErrInfoMismatch     = errors.New("escrow: deal info differs from first registration")
	ErrNothingEscrowed  = errors.New("escrow: nothing to escrow")
	ErrWrongKind        = errors.New("escrow: operation does not match asset kind")
	ErrAlreadyFinalized = errors.New("escrow: deal already finalized")
)

// State is the per-deal bookkeeping at one escrow contract.
type State struct {
	Parties []chain.Addr
	Status  Status

	// Fungible bookkeeping (Figure 3): Deposited is the A map (refund on
	// abort), OnCommit the C map (payout on commit).
	Deposited map[chain.Addr]uint64
	OnCommit  map[chain.Addr]uint64

	// Non-fungible bookkeeping: per token id.
	AbortOwner  map[string]chain.Addr
	CommitOwner map[string]chain.Addr

	// DepositedAt records when each party's first deposit locked (the
	// start of its capital exposure); FinalizedAt records when the deal
	// committed or aborted at this contract (zero while active). Hedge
	// contracts settle sore-loser claims against the two: an abort that
	// finalized long after a deposit locked is a deposit that was
	// timelocked for nothing.
	DepositedAt map[chain.Addr]sim.Time
	FinalizedAt sim.Time

	// Info is the protocol-specific deal information supplied at first
	// escrow (plist and t0/Δ for timelock; plist, start hash and
	// validators for CBC). Later escrow calls must supply equal info.
	Info any
}

// hasParty reports whether p is in the registered party list.
func (s *State) hasParty(p chain.Addr) bool {
	for _, q := range s.Parties {
		if q == p {
			return true
		}
	}
	return false
}

// TotalDeposited sums fungible deposits (the contract's liability on abort).
func (s *State) TotalDeposited() uint64 {
	var t uint64
	for _, v := range s.Deposited {
		t += v
	}
	return t
}

// TotalOnCommit sums fungible commit payouts (liability on commit).
func (s *State) TotalOnCommit() uint64 {
	var t uint64
	for _, v := range s.OnCommit {
		t += v
	}
	return t
}

// Book tracks all deals at one escrow contract, which manages exactly one
// token contract of one kind.
type Book struct {
	Token chain.Addr
	Kind  deal.Kind
	deals map[string]*State
	// held maps non-fungible token ids to the deal currently escrowing
	// them, preventing the same ticket from entering two deals.
	held map[string]string
}

// NewBook creates bookkeeping for the given token contract.
func NewBook(tok chain.Addr, kind deal.Kind) *Book {
	return &Book{
		Token: tok,
		Kind:  kind,
		deals: make(map[string]*State),
		held:  make(map[string]string),
	}
}

// Deal returns the state for a deal id, or nil.
func (b *Book) Deal(id string) *State { return b.deals[id] }

// Register creates (or returns) the state for a deal. On first
// registration the party list and info are stored; later calls must match
// the stored info exactly (parties must verify the Dinfo they see during
// validation, so divergent registrations are rejected outright).
func (b *Book) Register(env *chain.Env, id string, parties []chain.Addr, info any, equal func(a, c any) bool) (*State, error) {
	if st, ok := b.deals[id]; ok {
		if !equal(st.Info, info) {
			return nil, fmt.Errorf("%w: deal %s", ErrInfoMismatch, id)
		}
		return st, nil
	}
	st := &State{
		Parties:     append([]chain.Addr(nil), parties...),
		Status:      StatusActive,
		Deposited:   make(map[chain.Addr]uint64),
		OnCommit:    make(map[chain.Addr]uint64),
		AbortOwner:  make(map[string]chain.Addr),
		CommitOwner: make(map[string]chain.Addr),
		DepositedAt: make(map[chain.Addr]sim.Time),
		Info:        info,
	}
	b.deals[id] = st
	env.Write(1) // record the deal registration
	return st, nil
}

// EscrowFungible pulls amount tokens from sender into the contract and
// credits both the A and C maps to sender. Four storage writes total,
// matching §7.1's count: two in the token transferFrom, one each for the
// Deposited and OnCommit maps.
func (b *Book) EscrowFungible(env *chain.Env, id string, amount uint64) error {
	st, err := b.activeState(id)
	if err != nil {
		return err
	}
	if b.Kind != deal.Fungible {
		return ErrWrongKind
	}
	sender := env.Sender()
	if !st.hasParty(sender) {
		return fmt.Errorf("%w: %s", ErrNotParty, sender)
	}
	if amount == 0 {
		return ErrNothingEscrowed
	}
	// Pre: Owns(P, a) — enforced by the token contract.
	if _, err := env.Call(b.Token, token.MethodTransferFrom, token.TransferFromArgs{
		From: sender, To: env.Self(), Amount: amount,
	}); err != nil {
		return err
	}
	// Post: OwnsA(P, a) ∧ OwnsC(P, a).
	st.Deposited[sender] += amount
	st.OnCommit[sender] += amount
	if _, seen := st.DepositedAt[sender]; !seen {
		st.DepositedAt[sender] = env.Now()
	}
	env.Write(2)
	return nil
}

// EscrowTokens pulls specific non-fungible tokens from sender into the
// contract and records sender as both abort and commit owner of each.
func (b *Book) EscrowTokens(env *chain.Env, id string, ids []string) error {
	st, err := b.activeState(id)
	if err != nil {
		return err
	}
	if b.Kind != deal.NonFungible {
		return ErrWrongKind
	}
	sender := env.Sender()
	if !st.hasParty(sender) {
		return fmt.Errorf("%w: %s", ErrNotParty, sender)
	}
	if len(ids) == 0 {
		return ErrNothingEscrowed
	}
	for _, tid := range ids {
		if holder, held := b.held[tid]; held {
			return fmt.Errorf("%w: %s in deal %s", ErrTokenHeld, tid, holder)
		}
	}
	for _, tid := range ids {
		if _, err := env.Call(b.Token, token.MethodTransferFrom, token.TransferFromArgs{
			From: sender, To: env.Self(), Token: tid,
		}); err != nil {
			return err
		}
		st.AbortOwner[tid] = sender
		st.CommitOwner[tid] = sender
		b.held[tid] = id
		if _, seen := st.DepositedAt[sender]; !seen {
			st.DepositedAt[sender] = env.Now()
		}
		env.Write(2)
	}
	return nil
}

// TransferFungible tentatively moves amount of commit-ownership from the
// sender to another party: the OnCommit update of Figure 3, two writes.
func (b *Book) TransferFungible(env *chain.Env, id string, to chain.Addr, amount uint64) error {
	st, err := b.activeState(id)
	if err != nil {
		return err
	}
	if b.Kind != deal.Fungible {
		return ErrWrongKind
	}
	sender := env.Sender()
	if !st.hasParty(sender) {
		return fmt.Errorf("%w: %s", ErrNotParty, sender)
	}
	if !st.hasParty(to) {
		return fmt.Errorf("%w: recipient %s", ErrNotParty, to)
	}
	// Pre: OwnsC(P, a).
	if st.OnCommit[sender] < amount {
		return fmt.Errorf("%w: %s has %d on commit, needs %d", ErrInsufficient, sender, st.OnCommit[sender], amount)
	}
	// Post: OwnsC(Q, a).
	st.OnCommit[sender] -= amount
	st.OnCommit[to] += amount
	env.Write(2)
	return nil
}

// TransferTokens tentatively moves commit-ownership of specific tokens.
func (b *Book) TransferTokens(env *chain.Env, id string, to chain.Addr, ids []string) error {
	st, err := b.activeState(id)
	if err != nil {
		return err
	}
	if b.Kind != deal.NonFungible {
		return ErrWrongKind
	}
	sender := env.Sender()
	if !st.hasParty(sender) {
		return fmt.Errorf("%w: %s", ErrNotParty, sender)
	}
	if !st.hasParty(to) {
		return fmt.Errorf("%w: recipient %s", ErrNotParty, to)
	}
	for _, tid := range ids {
		if st.CommitOwner[tid] != sender {
			return fmt.Errorf("%w: %s does not commit-own %s", ErrInsufficient, sender, tid)
		}
	}
	for _, tid := range ids {
		st.CommitOwner[tid] = to
		env.Write(1)
	}
	return nil
}

// FinalizeCommit makes the C map real: escrowed assets go to their
// tentative owners. Idempotent via status check.
func (b *Book) FinalizeCommit(env *chain.Env, id string) error {
	st, err := b.activeState(id)
	if err != nil {
		return err
	}
	st.Status = StatusCommitted
	st.FinalizedAt = env.Now()
	env.Write(1)
	return b.payout(env, st, st.OnCommit, st.CommitOwner)
}

// FinalizeAbort makes the A map real: escrowed assets are refunded to
// their original owners.
func (b *Book) FinalizeAbort(env *chain.Env, id string) error {
	st, err := b.activeState(id)
	if err != nil {
		return err
	}
	st.Status = StatusAborted
	st.FinalizedAt = env.Now()
	env.Write(1)
	refunds := make(map[string]chain.Addr, len(st.AbortOwner))
	for tid, owner := range st.AbortOwner {
		refunds[tid] = owner
	}
	return b.payout(env, st, st.Deposited, refunds)
}

// payout distributes the contract's holdings per the chosen map.
func (b *Book) payout(env *chain.Env, st *State, fungible map[chain.Addr]uint64, tokens map[string]chain.Addr) error {
	if b.Kind == deal.Fungible {
		// Deterministic order over parties.
		for _, p := range st.Parties {
			amt := fungible[p]
			if amt == 0 {
				continue
			}
			if _, err := env.Call(b.Token, token.MethodTransfer, token.TransferArgs{
				To: p, Amount: amt,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	// Non-fungible: deterministic order over token ids via held map is
	// not ordered; sort by id.
	ids := sortedKeys(tokens)
	for _, tid := range ids {
		owner := tokens[tid]
		if _, err := env.Call(b.Token, token.MethodTransfer, token.TransferArgs{
			To: owner, Token: tid,
		}); err != nil {
			return err
		}
		delete(b.held, tid)
	}
	return nil
}

func sortedKeys(m map[string]chain.Addr) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// activeState fetches a registered, still-active deal.
func (b *Book) activeState(id string) (*State, error) {
	st, ok := b.deals[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDeal, id)
	}
	if st.Status != StatusActive {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotActive, id, st.Status)
	}
	return st, nil
}

// View is a read-only handle on a deal's state at one escrow contract,
// returned by the "status" query for party-side validation (§4.1: each
// party checks that its incoming assets are properly escrowed) and read
// by contracts on the same chain (the hedging contract settles against
// it). It copies nothing and answers from the live state, as of the
// instant it is asked; it hands out values only, never a map or slice
// of the contract's, so nothing a caller does with a View can alter the
// contract. The zero View is a deal the contract never saw, and answers
// zero values. A View is one pointer wide, so it crosses Invoke's any
// without allocating.
type View struct{ st *State }

// unregistered backs the zero View; nothing ever writes to it.
var unregistered State

// ViewOf returns the handle for a deal id.
func (b *Book) ViewOf(id string) View { return View{b.deals[id]} }

func (v View) state() *State {
	if v.st == nil {
		return &unregistered
	}
	return v.st
}

// Exists reports whether the deal is registered at the contract.
func (v View) Exists() bool { return v.st != nil }

// Status is the deal's lifecycle state at this contract.
func (v View) Status() Status { return v.state().Status }

// Info is the Dinfo supplied at first escrow.
func (v View) Info() any { return v.state().Info }

// FinalizedAt is when the deal committed or aborted here (zero while
// active).
func (v View) FinalizedAt() sim.Time { return v.state().FinalizedAt }

// PartiesEqual reports whether the registered party list is exactly ps.
func (v View) PartiesEqual(ps []chain.Addr) bool { return slices.Equal(v.state().Parties, ps) }

// DepositedOf is p's entry in the A map: its refund on abort.
func (v View) DepositedOf(p chain.Addr) uint64 { return v.state().Deposited[p] }

// OnCommitOf is p's entry in the C map: its payout on commit.
func (v View) OnCommitOf(p chain.Addr) uint64 { return v.state().OnCommit[p] }

// CommitOwnerOf is who receives token id on commit ("" if not escrowed).
func (v View) CommitOwnerOf(id string) chain.Addr { return v.state().CommitOwner[id] }

// DepositedAtOf is when p's first deposit locked, and whether it made one.
func (v View) DepositedAtOf(p chain.Addr) (at sim.Time, ok bool) {
	at, ok = v.state().DepositedAt[p]
	return at, ok
}
