package pow

import (
	"errors"
	"fmt"
	"strings"

	"xdeal/internal/chain"
	"xdeal/internal/escrow"
)

// This file implements the escrow-contract side of a proof-of-work CBC
// (§6.2): a manager that releases or refunds escrowed assets against PoW
// proofs carrying a required number of confirmations.
//
// The crucial difference from the BFT manager in package cbc is what the
// contract *cannot* check: a PoW proof demonstrates only that someone
// spent work extending a block — not that the block is on the eventually-
// heaviest chain. A privately mined fork with enough confirmations is
// indistinguishable from the public one, so "any proof might be
// contradicted by a later proof". The tests stage the paper's attack
// against this contract; deepening K makes the attack geometrically more
// expensive but never impossible, which is why the paper prefers BFT
// certificates.

// Contract methods, mirroring the cbc manager.
const (
	MethodCommitProof = "commit"
	MethodAbortProof  = "abort"
)

// parseVote decodes a vote entry; ok is false for non-vote entries.
func parseVote(entry string) (dealID string, party chain.Addr, commit, ok bool) {
	parts := strings.Split(entry, ":")
	if len(parts) != 4 || parts[0] != "vote" {
		return "", "", false, false
	}
	switch parts[3] {
	case "commit":
		commit = true
	case "abort":
		commit = false
	default:
		return "", "", false, false
	}
	return parts[1], chain.Addr(parts[2]), commit, true
}

// ProofArgs carries a PoW proof to the manager.
type ProofArgs struct {
	Deal  string
	Proof Proof
}

// Errors.
var (
	ErrProofShape    = errors.New("pow: malformed proof")
	ErrNotDecisive   = errors.New("pow: decisive block does not establish the claimed outcome")
	ErrConfirmations = errors.New("pow: not enough confirmations")
)

// Manager is an escrow manager settling against PoW proofs with a
// required confirmation depth K. Per §6.2, K should scale with the value
// of the deal; the harness sweeps it.
type Manager struct {
	*escrow.Manager
	K int
}

// NewManager creates a PoW escrow manager requiring k confirmations.
func NewManager(book *escrow.Book, k int) *Manager {
	return &Manager{Manager: escrow.NewManager(book), K: k}
}

// Invoke implements chain.Contract.
func (m *Manager) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodCommitProof:
		a, ok := args.(ProofArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.handle(env, a, true)
	case MethodAbortProof:
		a, ok := args.(ProofArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.handle(env, a, false)
	default:
		return m.Manager.Invoke(env, method, args)
	}
}

// handle verifies structure and confirmation depth, then finalizes. The
// checks are everything a contract can do with a PoW proof — and, per the
// paper, not enough to rule out a private fork.
func (m *Manager) handle(env *chain.Env, a ProofArgs, wantCommit bool) error {
	st := m.Deal(a.Deal)
	if st == nil {
		return fmt.Errorf("%w: %s", escrow.ErrUnknownDeal, a.Deal)
	}
	if st.Status != escrow.StatusActive {
		return escrow.NotActive(a.Deal, st.Status)
	}
	if err := a.Proof.Valid(m.K); err != nil {
		return fmt.Errorf("%w: %v", ErrConfirmations, err)
	}
	// Charge for the header-chain validation (hash checks, cheap) —
	// note: zero signature verifications, unlike the BFT manager.
	env.Arith(1 + len(a.Proof.Confirmations))

	// Replay the decisive block's votes for this deal.
	committed := make(map[chain.Addr]bool)
	aborted := false
	for _, e := range a.Proof.Decisive.Entries {
		dealID, party, commit, ok := parseVote(e)
		if !ok || dealID != a.Deal || !containsAddr(st.Parties, party) {
			continue
		}
		if commit {
			committed[party] = true
		} else {
			aborted = true
		}
	}
	if wantCommit {
		if aborted || len(committed) != len(st.Parties) {
			return fmt.Errorf("%w: %d/%d commit votes, abort=%v",
				ErrNotDecisive, len(committed), len(st.Parties), aborted)
		}
		if err := m.FinalizeCommit(env, a.Deal); err != nil {
			return err
		}
		env.Emit(escrow.EventCommitted, escrow.OutcomeEvent{Deal: a.Deal, Status: escrow.StatusCommitted})
		return nil
	}
	if !aborted {
		return fmt.Errorf("%w: no abort vote in decisive block", ErrNotDecisive)
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
