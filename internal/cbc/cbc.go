// Package cbc implements the certified blockchain commit protocol of §6:
// a commit protocol for the eventually-synchronous model. A dedicated
// blockchain, the CBC, acts as a shared log that records and orders
// commit and abort votes for entire deals. Parties extract proofs of
// commit or abort from the CBC and present them to the escrow contracts
// on the asset chains, which verify validator signatures (Figure 6) and
// release or refund accordingly.
//
// The decisive vote rule (§6.2): a proof of commit shows every party
// voted to commit before any party voted to abort; a proof of abort shows
// some party voted to abort before every party had voted to commit.
//
// Two proof formats are provided, reproducing the §6.2 discussion:
//
//   - Certificate proofs: the CBC's validators vouch for the deal's
//     decided status with a 2f+1 quorum certificate, plus the
//     reconfiguration chain if the validator set has changed. Cheap:
//     (k+1)(2f+1) signature verifications.
//   - Block-subsequence proofs (the "straightforward approach"): the
//     certified blocks from the deal's startDeal through the decisive
//     vote; the contract replays the entries. Expensive: one quorum
//     check per block.
package cbc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"xdeal/internal/bft"
	"xdeal/internal/chain"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/obs"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
)

// EntryKind distinguishes CBC log entries.
type EntryKind int

// Entry kinds.
const (
	EntryStartDeal EntryKind = iota
	EntryCommit
	EntryAbort
)

// LabelCBC tags the gas the CBC's own block production charges, so
// consensus overhead lands in its own accounting row.
const LabelCBC = "cbc"

// String implements fmt.Stringer.
func (k EntryKind) String() string {
	switch k {
	case EntryStartDeal:
		return "startDeal"
	case EntryCommit:
		return "commit"
	case EntryAbort:
		return "abort"
	default:
		return fmt.Sprintf("EntryKind(%d)", int(k))
	}
}

// Entry is one CBC log record: startDeal(D, plist), commit(D, h, X) or
// abort(D, h, X).
type Entry struct {
	Kind    EntryKind
	Deal    string
	Party   chain.Addr   // voter; the startDeal publisher for EntryStartDeal
	Parties []chain.Addr // plist, startDeal only
	Hash    [32]byte     // hash of the definitive startDeal, votes only
}

// encode serializes an entry deterministically for block digests.
func (e Entry) encode() []byte {
	var b []byte
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(e.Kind))
	b = append(b, tmp[:]...)
	b = append(b, e.Deal...)
	b = append(b, 0)
	b = append(b, e.Party...)
	b = append(b, 0)
	for _, p := range e.Parties {
		b = append(b, p...)
		b = append(b, 0)
	}
	b = append(b, e.Hash[:]...)
	return b
}

// Block is a certified CBC block.
type Block struct {
	Height   uint64
	PrevHash [32]byte
	Hash     [32]byte
	Time     sim.Time
	Entries  []Entry
	// Reconfig, when non-nil, installs a new committee effective from
	// the next block.
	Reconfig *bft.Reconfig

	// cert is the producing committee's quorum certificate over the
	// block hash. Only a BlockProof ever shows it to a verifier, so the
	// quorum signs when a proof first carries the block (CBC.certify),
	// not at production: epoch and quorum are the producing
	// committee's, whatever reconfigurations happened since, and
	// signatures are deterministic, so the bytes are those an eager
	// signing would have produced. quorum is nil once cert is built.
	cert   bft.Certificate
	epoch  int
	quorum []bft.Signer
}

// digest computes the block hash over parent, height and entries.
func blockDigest(height uint64, prev [32]byte, entries []Entry) [32]byte {
	var parts [][]byte
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], height)
	parts = append(parts, tmp[:], prev[:])
	for _, e := range entries {
		parts = append(parts, e.encode())
	}
	return sig.Hash(parts...)
}

// DealState is the CBC-side view of one deal.
type DealState struct {
	// StartHash is the definitive startDeal entry's hash, which commits
	// to its block height and index in the block (see StartHash).
	StartHash [32]byte
	Parties   []chain.Addr
	Status    escrow.Status // Active until decided
	Committed map[chain.Addr]bool
	// DecidedAt is the block height of the decisive vote.
	DecidedAt uint64

	// statusCert is the validators' certificate over the decided status,
	// signed on the first StatusProofFor and again only under a new
	// committee: a decision is final and signatures are deterministic,
	// so every claimant of one epoch is handed the same bytes.
	statusCert *bft.Certificate
}

// StartHash computes the definitive hash of a startDeal entry from its
// content and position. Position matters: a later duplicate startDeal
// must not be mistakable for the definitive one when contracts replay
// block-subsequence proofs.
func StartHash(dealID string, parties []chain.Addr, height uint64, index int) [32]byte {
	var tmp [16]byte
	binary.BigEndian.PutUint64(tmp[:8], height)
	binary.BigEndian.PutUint64(tmp[8:], uint64(index))
	return sig.Hash([]byte("startDeal"), []byte(dealID), encodeAddrs(parties), tmp[:])
}

// Config parameterizes the CBC service.
type Config struct {
	Tag           string
	F             int
	BlockInterval sim.Duration
	Delays        chain.DelayPolicy
	Schedule      gas.Schedule
	// Censor lists parties whose votes the validators silently drop —
	// the censorship threat of §9.
	Censor map[chain.Addr]bool
	// OutageFrom/OutageUntil model §9's denial-of-service threat against
	// the CBC itself: no blocks are certified during the window, locking
	// every active deal's assets for its duration.
	OutageFrom  sim.Time
	OutageUntil sim.Time
	// Memo signs the validators' certificates through the world's
	// signature memo (see sig.Memo.Sign); nil signs plainly.
	Memo *sig.Memo
}

// CBC is the certified blockchain: a BFT-replicated vote log. The
// simulation collapses the validator replicas into one state machine and
// exposes their external behavior: ordered certified blocks and status
// certificates.
type CBC struct {
	cfg   Config
	sched *sim.Scheduler
	rng   *sim.RNG
	meter *gas.Meter

	committee bft.Committee
	signers   []bft.Signer // honest signers of the current committee
	reconfigs []bft.Reconfig
	initial   bft.Committee

	blocks   []*Block
	pending  []Entry
	blockSet bool
	deals    map[string]*DealState
	// subs holds each observer's delivery call, built once in Subscribe
	// and scheduled with the block as its argument.
	subs []func(any)
	// blockCall produces the next block, built once in New.
	blockCall func(any)

	certsSigned uint64 // quorum certificates signed (see RegisterMetrics)
}

// New creates a CBC with a fresh epoch-0 committee.
func New(cfg Config, sched *sim.Scheduler, rng *sim.RNG) *CBC {
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 10
	}
	if cfg.Delays == nil {
		cfg.Delays = chain.SyncPolicy{Min: 1, Max: 5}
	}
	committee, signers := bft.NewCommittee(cfg.Tag, 0, cfg.F)
	c := &CBC{
		cfg:       cfg,
		sched:     sched,
		rng:       rng.Fork(),
		meter:     gas.NewMeter(cfg.Schedule),
		committee: committee,
		signers:   signers,
		initial:   committee,
		deals:     make(map[string]*DealState),
	}
	c.blockCall = func(any) { c.produceBlock() }
	return c
}

// InitialCommittee returns the epoch-0 committee, which parties pass to
// escrow contracts at escrow time ("passing the 3f+1 validators of the
// initial block as an extra argument to each of the deal's escrow
// contracts").
func (c *CBC) InitialCommittee() bft.Committee { return c.initial }

// Meter returns the CBC's own gas meter (vote recording costs).
func (c *CBC) Meter() *gas.Meter { return c.meter }

// RegisterMetrics folds the service's signing work into a registry:
// quorum certificates signed — status certificates, handovers, and the
// block certificates a proof actually carried. Derived from simulation
// state, so registering is side-effect free.
func (c *CBC) RegisterMetrics(reg *obs.Registry) {
	if reg == nil || c == nil {
		return
	}
	reg.Counter("cbc.certificates_signed").Add(c.certsSigned)
}

// Height returns the number of blocks produced.
func (c *CBC) Height() uint64 { return uint64(len(c.blocks)) }

// Deal returns the CBC's state for a deal id, or nil.
func (c *CBC) Deal(id string) *DealState { return c.deals[id] }

// Subscribe registers a block observer; delivery is delayed by the
// notification latency.
func (c *CBC) Subscribe(fn func(*Block)) {
	c.subs = append(c.subs, func(b any) { fn(b.(*Block)) })
}

// delay draws one submit or notify delay from the service's delay stream.
func (c *CBC) delay() sim.Duration {
	return c.rng.Duration(c.cfg.Delays.Bounds(c.sched.Now()))
}

// Publish submits an entry to the CBC; it is included in the next block
// after the submit delay, unless its sender is censored.
func (c *CBC) Publish(e Entry) {
	c.sched.After(c.delay(), func() {
		if c.cfg.Censor[e.Party] {
			return // validators silently ignore censored parties
		}
		c.pending = append(c.pending, e)
		c.scheduleBlock()
	})
}

func (c *CBC) scheduleBlock() {
	if c.blockSet || len(c.pending) == 0 {
		return
	}
	c.blockSet = true
	now := c.sched.Now()
	next := (now/c.cfg.BlockInterval + 1) * c.cfg.BlockInterval
	if c.cfg.OutageUntil > 0 && next >= c.cfg.OutageFrom && next < c.cfg.OutageUntil {
		next = (c.cfg.OutageUntil/c.cfg.BlockInterval + 1) * c.cfg.BlockInterval
	}
	c.sched.AfterCall(next-now, c.blockCall, nil)
}

func (c *CBC) produceBlock() {
	c.blockSet = false
	entries := c.pending
	c.pending = nil
	if len(entries) == 0 {
		return
	}
	// Validators validate entries before ordering them: malformed votes
	// (unknown deal, non-party voter, wrong hash) are dropped.
	height := uint64(len(c.blocks) + 1)
	var accepted []Entry
	for _, e := range entries {
		if c.applyEntry(e, height, len(accepted)) {
			accepted = append(accepted, e)
		}
	}
	if len(accepted) == 0 {
		c.scheduleBlock()
		return
	}
	var prev [32]byte
	if len(c.blocks) > 0 {
		prev = c.blocks[len(c.blocks)-1].Hash
	}
	b := &Block{
		Height:   height,
		PrevHash: prev,
		Hash:     blockDigest(height, prev, accepted),
		Time:     c.sched.Now(),
		Entries:  accepted,
		epoch:    c.committee.Epoch,
		quorum:   c.quorum(),
	}
	c.blocks = append(c.blocks, b)
	c.meter.Charge(LabelCBC, gas.OpWrite, uint64(len(accepted)))

	for _, call := range c.subs {
		c.sched.AfterCall(c.delay(), call, b)
	}
	c.scheduleBlock()
}

// applyEntry updates deal state; returns false for entries the validators
// reject. height and index locate the entry in the block being built.
func (c *CBC) applyEntry(e Entry, height uint64, index int) bool {
	switch e.Kind {
	case EntryStartDeal:
		if len(e.Parties) == 0 || !containsAddr(e.Parties, e.Party) {
			return false // startDeal caller must appear in the plist
		}
		if _, exists := c.deals[e.Deal]; exists {
			// The earliest startDeal is definitive; later ones are
			// recorded but do not change state. Accept into the log so
			// the "more than one startDeal" case of §6 is representable.
			return true
		}
		st := &DealState{
			Parties:   append([]chain.Addr(nil), e.Parties...),
			Status:    escrow.StatusActive,
			Committed: make(map[chain.Addr]bool),
		}
		st.StartHash = StartHash(e.Deal, e.Parties, height, index)
		c.deals[e.Deal] = st
		return true

	case EntryCommit, EntryAbort:
		st, ok := c.deals[e.Deal]
		if !ok {
			return false
		}
		if e.Hash != st.StartHash {
			return false // vote references a non-definitive startDeal
		}
		if !containsAddr(st.Parties, e.Party) {
			return false
		}
		if st.Status != escrow.StatusActive {
			return true // late votes are logged but the decision stands
		}
		if e.Kind == EntryAbort {
			// Some party aborted before every party committed: decisive.
			st.Status = escrow.StatusAborted
			st.DecidedAt = height
			return true
		}
		st.Committed[e.Party] = true
		if len(st.Committed) == len(st.Parties) {
			st.Status = escrow.StatusCommitted
			st.DecidedAt = height
		}
		return true

	default:
		return false
	}
}

// StartHash returns the definitive start hash for a deal, if started.
func (c *CBC) StartHash(id string) ([32]byte, bool) {
	st, ok := c.deals[id]
	if !ok {
		return [32]byte{}, false
	}
	return st.StartHash, true
}

// Reconfigure elects a fresh committee for the next epoch; the old
// committee certifies the handover. Contracts verifying proofs issued
// afterwards must walk the reconfiguration chain.
func (c *CBC) Reconfigure() {
	next, signers := bft.NewCommittee(c.cfg.Tag, c.committee.Epoch+1, c.cfg.F)
	rc := bft.NewReconfigWith(c.cfg.Memo, next, c.committee.Epoch, c.quorum())
	c.certsSigned++
	c.reconfigs = append(c.reconfigs, rc)
	c.committee = next
	c.signers = signers
}

// Proof errors.
var (
	ErrUndecided   = errors.New("cbc: deal not decided yet")
	ErrUnknownDeal = errors.New("cbc: deal not started")
)

// StatusProof is the optimized certificate proof: validators vouch for
// the deal's decided status directly.
type StatusProof struct {
	Deal      string
	StartHash [32]byte
	Status    escrow.Status
	Reconfigs []bft.Reconfig
	Cert      bft.Certificate
}

// StatementBytes encodes the certified claim.
func StatementBytes(dealID string, start [32]byte, status escrow.Status) []byte {
	h := sig.Hash([]byte("cbc-status"), []byte(dealID), start[:], []byte{byte(status)})
	return h[:]
}

// StatusProofFor asks the validators for a status certificate (§6.2's
// optimization). Fails if the deal is undecided.
func (c *CBC) StatusProofFor(id string) (StatusProof, error) {
	st, ok := c.deals[id]
	if !ok {
		return StatusProof{}, fmt.Errorf("%w: %s", ErrUnknownDeal, id)
	}
	if st.Status == escrow.StatusActive {
		return StatusProof{}, fmt.Errorf("%w: %s", ErrUndecided, id)
	}
	if st.statusCert == nil || st.statusCert.Epoch != c.committee.Epoch {
		cert := bft.MakeCertificateWith(c.cfg.Memo, StatementBytes(id, st.StartHash, st.Status), c.committee.Epoch, c.quorum())
		c.certsSigned++
		st.statusCert = &cert
	}
	return StatusProof{
		Deal:      id,
		StartHash: st.StartHash,
		Status:    st.Status,
		Reconfigs: append([]bft.Reconfig(nil), c.reconfigs...),
		Cert:      *st.statusCert,
	}, nil
}

// certify has b's producing quorum sign it, the first time a proof
// carries the block.
func (c *CBC) certify(b *Block) {
	if b.quorum == nil {
		return
	}
	b.cert = bft.MakeCertificateWith(c.cfg.Memo, b.Hash[:], b.epoch, b.quorum)
	b.quorum = nil
	c.certsSigned++
}

// quorum returns the 2f+1 signers of the current committee that certify
// on its behalf.
func (c *CBC) quorum() []bft.Signer { return c.signers[:c.committee.Quorum()] }

// BlockProof is the straightforward block-subsequence proof: every block
// from the deal's start through the decisive vote, each certified.
type BlockProof struct {
	Deal   string
	Blocks []*Block
	// Reconfigs covers committee changes across the span. For simplicity
	// the simulated CBC certifies every block with the epoch current at
	// production time; the proof carries the chain needed to verify them.
	Reconfigs []bft.Reconfig
}

// BlockProofFor assembles the naive proof for a decided deal.
func (c *CBC) BlockProofFor(id string) (BlockProof, error) {
	st, ok := c.deals[id]
	if !ok {
		return BlockProof{}, fmt.Errorf("%w: %s", ErrUnknownDeal, id)
	}
	if st.Status == escrow.StatusActive {
		return BlockProof{}, fmt.Errorf("%w: %s", ErrUndecided, id)
	}
	var span []*Block
	started := false
	for _, b := range c.blocks {
		if !started {
			for _, e := range b.Entries {
				if e.Kind == EntryStartDeal && e.Deal == id {
					started = true
					break
				}
			}
		}
		if started {
			c.certify(b)
			span = append(span, b)
		}
		if b.Height == st.DecidedAt {
			break
		}
	}
	return BlockProof{
		Deal:      id,
		Blocks:    span,
		Reconfigs: append([]bft.Reconfig(nil), c.reconfigs...),
	}, nil
}

func containsAddr(list []chain.Addr, a chain.Addr) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

func encodeAddrs(as []chain.Addr) []byte {
	var b []byte
	for _, a := range as {
		b = append(b, a...)
		b = append(b, 0)
	}
	return b
}
