package party

import (
	"slices"

	"xdeal/internal/cbc"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/sim"
)

// ProofFormat selects which CBC proof a party presents to escrow
// contracts: the optimized status certificate or the naive block
// subsequence (the §6.2 ablation).
type ProofFormat int

// Proof formats.
const (
	ProofStatus ProofFormat = iota
	ProofBlocks
)

// CBCHooks wires a CBC-protocol party to the certified blockchain.
type CBCHooks struct {
	CBC         *cbc.CBC
	ProofFormat ProofFormat
	// PublishStart marks the party that records startDeal on the CBC
	// ("One party records the start of the deal").
	PublishStart bool
}

// cbcState is the CBC driver's bookkeeping. A party keeps it as a value,
// with its claimed map built in New and cleared in Reset.
type cbcState struct {
	started   bool
	startHash [32]byte
	// votedCommit records that a commit vote was published;
	// votedCommitAt alone cannot, because sim time starts at 0 and a
	// vote stamped t=0 is indistinguishable from "never voted".
	votedCommit   bool
	votedCommitAt sim.Time
	votedAbort    bool
	claimed       map[string]bool
	gaveUp        bool
}

// startCBC runs the CBC protocol (§6): observe the startDeal, escrow with
// the start hash and initial committee as Dinfo, transfer, validate, vote
// on the CBC, and present proofs to escrow contracts once decided.
func (p *Party) startCBC() {
	hooks := p.cfg.CBCHooks
	hooks.CBC.Subscribe(func(b *cbc.Block) {
		if !p.active() {
			return
		}
		p.onCBCBlock(b)
	})
	if hooks.PublishStart {
		hooks.CBC.Publish(cbc.Entry{
			Kind:    cbc.EntryStartDeal,
			Deal:    p.cfg.Spec.ID,
			Party:   p.Addr,
			Parties: p.cfg.Spec.Parties,
		})
	}
}

// onCBCBlock reacts to new certified blocks: learn the definitive
// startDeal, then watch for the decision.
func (p *Party) onCBCBlock(b *cbc.Block) {
	st := &p.cbcState
	if !st.started {
		for idx, e := range b.Entries {
			if e.Kind != cbc.EntryStartDeal || e.Deal != p.cfg.Spec.ID {
				continue
			}
			if !slices.Equal(e.Parties, p.cfg.Spec.Parties) {
				// The recorded plist differs from what clearing
				// announced; a prudent party refuses to take part.
				return
			}
			st.started = true
			st.startHash = cbc.StartHash(e.Deal, e.Parties, b.Height, idx)
			p.performEscrows(cbc.Info{
				StartHash: st.startHash,
				Committee: p.cfg.CBCHooks.CBC.InitialCommittee(),
			})
			p.scheduleGiveUp()
			break
		}
		if !st.started {
			return
		}
	}
	p.claimDecided()
}

// claimDecided claims the CBC's decision, if it has decided: the deal's
// state there is public (§6).
func (p *Party) claimDecided() {
	if d := p.cfg.CBCHooks.CBC.Deal(p.cfg.Spec.ID); d != nil && d.Status != escrow.StatusActive {
		p.claimOutcome(d.Status)
	}
}

// cbcInfoOK verifies the Dinfo registered at an escrow contract: correct
// start hash and correct initial validators (§6.2: "they must check their
// correctness before voting to commit").
func (p *Party) cbcInfoOK(info any) bool {
	ci, ok := info.(cbc.Info)
	if !ok {
		return false
	}
	st := &p.cbcState
	if !st.started || ci.StartHash != st.startHash {
		return false
	}
	return ci.Committee.Equal(p.cfg.CBCHooks.CBC.InitialCommittee())
}

// sendCBCVote publishes the party's vote on the CBC: commit, unless the
// vote was rewritten to an abort. A rescinding vote (rescind > 0) votes
// abort that soon after committing, violating the wait-Δ rule when small.
func (p *Party) sendCBCVote(vote action) {
	st := &p.cbcState
	if !st.started {
		return
	}
	if vote.abort {
		st.votedAbort = true
		p.publishVote(cbc.EntryAbort)
		return
	}
	p.publishVote(cbc.EntryCommit)
	st.votedCommit = true
	st.votedCommitAt = p.cfg.Sched.Now()
	if vote.rescind > 0 {
		p.cfg.Sched.After(vote.rescind, func() { p.publishVote(cbc.EntryAbort) })
	}
}

// publishVote records one of the party's votes on the CBC.
func (p *Party) publishVote(kind cbc.EntryKind) {
	p.cfg.CBCHooks.CBC.Publish(cbc.Entry{
		Kind: kind, Deal: p.cfg.Spec.ID, Party: p.Addr, Hash: p.cbcState.startHash,
	})
}

// rescind votes abort on the CBC, once, if the party has started the
// deal there: a party that backs out makes the deal die fast (it wants
// its own deposit back promptly too). On the timelock protocol,
// withholding the commit vote suffices — the contracts refund everyone
// at the horizon, and the refund poke is armed.
func (p *Party) rescind() {
	if st := &p.cbcState; st.started && !st.votedAbort {
		st.votedAbort = true
		p.publishVote(cbc.EntryAbort)
	}
}

// scheduleGiveUp arms the abort timer: if the deal is still undecided
// after the party's patience, it votes abort so its assets cannot stay
// locked (weak liveness). A compliant party that has voted commit waits
// at least Δ after that vote before rescinding (§6).
func (p *Party) scheduleGiveUp() {
	patience := p.cfg.Patience
	if patience <= 0 {
		patience = 10 * p.cfg.Spec.Delta
	}
	var fire func()
	fire = func() {
		st := &p.cbcState
		if st.gaveUp || !p.active() {
			return
		}
		d := p.cfg.CBCHooks.CBC.Deal(p.cfg.Spec.ID)
		if d == nil || d.Status != escrow.StatusActive {
			return // decided; nothing to rescind
		}
		if st.votedCommit {
			earliest := st.votedCommitAt + sim.Time(p.cfg.Spec.Delta)
			if p.cfg.Sched.Now() < earliest {
				p.cfg.Sched.After(earliest-p.cfg.Sched.Now(), fire)
				return
			}
		}
		if !p.act(&action{kind: actGiveUp}) {
			return
		}
		st.gaveUp = true
		st.votedAbort = true
		p.publishVote(cbc.EntryAbort)
	}
	p.cfg.Sched.After(patience, fire)
}

// claimOutcome presents the CBC's decision to escrow contracts: commit
// proofs to the contracts holding the party's incoming assets (it wants
// to be paid) and to those holding its deposits (the proof is public,
// §6, and discharging its own escrows is the only way to guarantee its
// assets cannot stay locked when the counterparty crashes before
// claiming — weak liveness must not depend on the recipient's
// diligence); abort proofs go to the contracts holding its deposits (it
// wants its refund). A front-runner claims here too (see race).
func (p *Party) claimOutcome(status escrow.Status) {
	st := &p.cbcState
	spec := p.cfg.Spec
	method, label := cbc.MethodCommitProof, LabelCommit
	if status == escrow.StatusAborted {
		method, label = cbc.MethodAbortProof, LabelAbort
	}
	claim := func(asset deal.AssetRef, key string) {
		if st.claimed[key] {
			return
		}
		c, ok := p.cfg.Chains[asset.Chain]
		if !ok {
			return
		}
		args := cbc.ProofArgs{Deal: spec.ID}
		if p.cfg.CBCHooks.ProofFormat == ProofBlocks {
			proof, err := p.cfg.CBCHooks.CBC.BlockProofFor(spec.ID)
			if err != nil {
				return
			}
			args.Blocks = &proof
		} else {
			proof, err := p.cfg.CBCHooks.CBC.StatusProofFor(spec.ID)
			if err != nil {
				return
			}
			args.Status = &proof
		}
		// Take the claim through the seam only once the proof is in
		// hand, so a failed proof fetch cannot leak a fee bidder's budget
		// on a never-submitted claim.
		a := action{kind: actClaim, on: c, tip: p.tipFor(c)}
		if !p.act(&a) {
			return
		}
		st.claimed[key] = true
		// An error receipt means someone else finalized first; that is fine.
		p.submitTx(c, asset.Escrow, method, label, args, a.tip, a.done)
	}
	if status != escrow.StatusAborted {
		for _, in := range p.mine.Incoming {
			claim(in.Asset, in.Key)
		}
	}
	for _, ob := range p.mine.Obligations {
		claim(ob.Asset, ob.Key)
	}
}
