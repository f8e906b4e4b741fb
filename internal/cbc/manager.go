package cbc

import (
	"bytes"
	"errors"
	"fmt"

	"xdeal/internal/bft"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
)

// Contract methods added on top of the escrow.Manager methods.
const (
	MethodCommitProof = "commit" // commit with a proof of commit
	MethodAbortProof  = "abort"  // abort with a proof of abort
)

// Info is the CBC Dinfo stored with each deal registration: the hash of
// the definitive startDeal and the CBC's initial validator committee
// ("parties must provide the correct validators when putting assets in
// escrow, and they must check their correctness before voting to
// commit").
type Info struct {
	StartHash [32]byte
	Committee bft.Committee
}

// ProofArgs carries either proof format to MethodCommitProof or
// MethodAbortProof.
type ProofArgs struct {
	Deal string
	// Exactly one of Status / Blocks is consulted.
	Status *StatusProof
	Blocks *BlockProof
}

// Topic names the deal, so mempool observers can watch one deal's proofs
// (see chain.PendingTx.Topic).
func (a ProofArgs) Topic() string { return a.Deal }

// Errors returned by proof verification.
var (
	ErrBadProof       = errors.New("cbc: proof does not establish the claimed outcome")
	ErrBadInfo        = errors.New("cbc: deal info is not CBC info")
	ErrNoProof        = errors.New("cbc: no proof supplied")
	ErrHashMismatch   = errors.New("cbc: proof is for a different startDeal")
	ErrBrokenBlocks   = errors.New("cbc: block subsequence is not contiguous or misses the startDeal")
	ErrReplayConflict = errors.New("cbc: replayed outcome differs from the claim")
)

// Manager is the CBCManager contract of Figure 6: an escrow manager whose
// assets are released or refunded against CBC proofs.
type Manager struct {
	*escrow.Manager
}

// NewManager creates a CBC escrow manager over the given bookkeeping.
func NewManager(book *escrow.Book) *Manager {
	return &Manager{Manager: escrow.NewManager(book)}
}

// Reset empties the manager and its book, leaving what
// NewManager(escrow.NewBook(tok, kind)) builds, with the storage of the
// book's maps kept. The deal states are dropped, not reused.
func (m *Manager) Reset(tok chain.Addr, kind deal.Kind) {
	m.Book.Reset(tok, kind)
	m.InfoEqual = nil
}

// Invoke implements chain.Contract.
func (m *Manager) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodCommitProof:
		a, ok := args.(ProofArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.handleOutcome(env, a, escrow.StatusCommitted)
	case MethodAbortProof:
		a, ok := args.(ProofArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.handleOutcome(env, a, escrow.StatusAborted)
	default:
		return m.Manager.Invoke(env, method, args)
	}
}

// handleOutcome verifies the proof and finalizes the deal accordingly.
func (m *Manager) handleOutcome(env *chain.Env, a ProofArgs, want escrow.Status) error {
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

	var err error
	switch {
	case a.Status != nil:
		err = verifyStatusProof(env, a.Deal, info, *a.Status, want)
	case a.Blocks != nil:
		var got escrow.Status
		got, _, err = VerifyBlockProof(env, a.Deal, info, *a.Blocks, st.Parties)
		if err == nil && got != want {
			err = fmt.Errorf("%w: replay yields %s, claim is %s", ErrReplayConflict, got, want)
		}
	default:
		return ErrNoProof
	}
	if err != nil {
		return err
	}

	if want == escrow.StatusCommitted {
		if err := m.FinalizeCommit(env, a.Deal); err != nil {
			return err
		}
		env.Emit(escrow.EventCommitted, escrow.OutcomeEvent{Deal: a.Deal, Status: escrow.StatusCommitted})
		return nil
	}
	if err := m.FinalizeAbort(env, a.Deal); err != nil {
		return err
	}
	env.Emit(escrow.EventAborted, escrow.OutcomeEvent{Deal: a.Deal, Status: escrow.StatusAborted})
	return nil
}

// verifyStatusProof checks the optimized certificate proof: walk the
// reconfiguration chain from the committee registered at escrow time,
// then verify a quorum certificate over the status statement. Gas:
// (k+1)(2f+1) signature verifications.
func verifyStatusProof(env *chain.Env, dealID string, info Info, p StatusProof, want escrow.Status) error {
	if p.Deal != dealID {
		return fmt.Errorf("%w: proof for %s", ErrBadProof, p.Deal)
	}
	if p.StartHash != info.StartHash {
		return ErrHashMismatch
	}
	if p.Status != want {
		return fmt.Errorf("%w: proof claims %s", ErrReplayConflict, p.Status)
	}
	final, err := bft.VerifyChain(info.Committee, p.Reconfigs, env.VerifyCertificate)
	if err != nil {
		return err
	}
	if err := env.VerifyCertificate(p.Cert, final); err != nil {
		return err
	}
	if !bytes.Equal(p.Cert.Statement, StatementBytes(dealID, info.StartHash, want)) {
		return fmt.Errorf("%w: certified statement mismatch", ErrBadProof)
	}
	return nil
}

// VerifyBlockProof checks the straightforward block-subsequence proof:
// the blocks must be contiguous and certified, the span must begin with
// the definitive startDeal (whose position-derived hash must equal the
// one registered at escrow), and replaying the votes yields the decided
// outcome. It returns the replayed outcome and, for aborts, the party
// whose abort vote was decisive — the "first to cause the deal to fail",
// which §9's deposit-incentive mechanism needs to identify. Gas: one
// quorum check per block — the cost the §6.2 optimization exists to
// avoid.
func VerifyBlockProof(env *chain.Env, dealID string, info Info, p BlockProof, escrowParties []chain.Addr) (escrow.Status, chain.Addr, error) {
	if p.Deal != dealID {
		return escrow.StatusUnknown, "", fmt.Errorf("%w: proof for %s", ErrBadProof, p.Deal)
	}
	if len(p.Blocks) == 0 {
		return escrow.StatusUnknown, "", ErrBrokenBlocks
	}

	// Establish the committees available along the proof's span.
	committees := map[int]bft.Committee{info.Committee.Epoch: info.Committee}
	cur := info.Committee
	for i, rc := range p.Reconfigs {
		if rc.Next.Epoch != cur.Epoch+1 {
			return escrow.StatusUnknown, "", fmt.Errorf("%w: reconfig step %d", bft.ErrBrokenChain, i)
		}
		if err := env.VerifyCertificate(rc.Cert, cur); err != nil {
			return escrow.StatusUnknown, "", err
		}
		if !bytes.Equal(rc.Cert.Statement, rc.Next.Encode()) {
			return escrow.StatusUnknown, "", fmt.Errorf("%w: reconfig statement", bft.ErrBrokenChain)
		}
		committees[rc.Next.Epoch] = rc.Next
		cur = rc.Next
	}

	// Verify block integrity: recomputed digests, quorum certificates,
	// and hash-chain contiguity.
	for i, b := range p.Blocks {
		if blockDigest(b.Height, b.PrevHash, b.Entries) != b.Hash {
			return escrow.StatusUnknown, "", fmt.Errorf("%w: block %d digest", ErrBrokenBlocks, b.Height)
		}
		comm, ok := committees[b.cert.Epoch]
		if !ok {
			return escrow.StatusUnknown, "", fmt.Errorf("%w: block %d epoch %d unknown", ErrBrokenBlocks, b.Height, b.cert.Epoch)
		}
		if err := env.VerifyCertificate(b.cert, comm); err != nil {
			return escrow.StatusUnknown, "", fmt.Errorf("block %d: %w", b.Height, err)
		}
		if !bytes.Equal(b.cert.Statement, b.Hash[:]) {
			return escrow.StatusUnknown, "", fmt.Errorf("%w: block %d certifies wrong hash", ErrBrokenBlocks, b.Height)
		}
		if i > 0 {
			prev := p.Blocks[i-1]
			if b.Height != prev.Height+1 || b.PrevHash != prev.Hash {
				return escrow.StatusUnknown, "", fmt.Errorf("%w: gap before block %d", ErrBrokenBlocks, b.Height)
			}
		}
	}

	// Locate the definitive startDeal: the first startDeal for this deal
	// in the span whose position hash matches the registered one. (A
	// span beginning at a later duplicate startDeal computes a different
	// hash and is rejected — the cheater cannot hide earlier votes.)
	var parties []chain.Addr
	found := false
	var replay []Entry
	for _, b := range p.Blocks {
		for idx, e := range b.Entries {
			if e.Deal != dealID {
				continue
			}
			if !found {
				if e.Kind != EntryStartDeal {
					return escrow.StatusUnknown, "", fmt.Errorf("%w: vote precedes startDeal in span", ErrBrokenBlocks)
				}
				if StartHash(dealID, e.Parties, b.Height, idx) != info.StartHash {
					return escrow.StatusUnknown, "", ErrHashMismatch
				}
				parties = e.Parties
				found = true
				continue
			}
			if e.Kind == EntryStartDeal {
				continue // later duplicates are ignored
			}
			replay = append(replay, e)
		}
	}
	if !found {
		return escrow.StatusUnknown, "", fmt.Errorf("%w: no startDeal in span", ErrBrokenBlocks)
	}
	if !equalAddrSets(parties, escrowParties) {
		return escrow.StatusUnknown, "", fmt.Errorf("%w: startDeal plist differs from escrowed plist", ErrBadProof)
	}

	// Replay the decisive-vote rule, remembering who aborted first.
	committed := make(map[chain.Addr]bool)
	outcome := escrow.StatusActive
	var culprit chain.Addr
	for _, e := range replay {
		if e.Hash != info.StartHash || !containsAddr(parties, e.Party) {
			continue // validators would have dropped these anyway
		}
		if outcome != escrow.StatusActive {
			break
		}
		if e.Kind == EntryAbort {
			outcome = escrow.StatusAborted
			culprit = e.Party
			break
		}
		committed[e.Party] = true
		if len(committed) == len(parties) {
			outcome = escrow.StatusCommitted
		}
	}
	if outcome == escrow.StatusActive {
		return escrow.StatusUnknown, "", fmt.Errorf("%w: span shows no decision", ErrReplayConflict)
	}
	return outcome, culprit, nil
}

func equalAddrSets(a, b []chain.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[chain.Addr]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			return false
		}
	}
	return true
}
