package party

import (
	"slices"

	"xdeal/internal/cbc"
	"xdeal/internal/chain"
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

// cbcState is the CBC driver's bookkeeping.
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
	p.cbcState = &cbcState{claimed: make(map[string]bool)}
	hooks := p.cfg.CBCHooks
	p.unsubs = append(p.unsubs, hooks.CBC.Subscribe(func(b *cbc.Block) {
		if !p.active() {
			return
		}
		p.onCBCBlock(b)
	}))
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
	st := p.cbcState
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
	// Public readability: the party checks the deal's decision state.
	if d := p.cfg.CBCHooks.CBC.Deal(p.cfg.Spec.ID); d != nil && d.Status != escrow.StatusActive {
		p.claimOutcome(d.Status, false, 0)
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
	st := p.cbcState
	if st == nil || !st.started || ci.StartHash != st.startHash {
		return false
	}
	return ci.Committee.Equal(p.cfg.CBCHooks.CBC.InitialCommittee())
}

// sendCBCVote publishes the party's vote on the CBC. Deviations: an
// AbortImmediately party votes abort instead; CommitThenAbort rescinds
// soon after committing (violating the wait-Δ rule when small).
func (p *Party) sendCBCVote(commit bool) {
	st := p.cbcState
	if st == nil || !st.started {
		return
	}
	b := p.cfg.Behavior
	if b.AbortImmediately {
		commit = false
	}
	kind := cbc.EntryCommit
	if !commit {
		kind = cbc.EntryAbort
		st.votedAbort = true
	}
	p.cfg.CBCHooks.CBC.Publish(cbc.Entry{
		Kind: kind, Deal: p.cfg.Spec.ID, Party: p.Addr, Hash: st.startHash,
	})
	if commit {
		st.votedCommit = true
		st.votedCommitAt = p.cfg.Sched.Now()
		if b.CommitThenAbort > 0 {
			p.cfg.Sched.After(b.CommitThenAbort, func() {
				p.cfg.CBCHooks.CBC.Publish(cbc.Entry{
					Kind: cbc.EntryAbort, Deal: p.cfg.Spec.ID,
					Party: p.Addr, Hash: st.startHash,
				})
			})
		}
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
		st := p.cbcState
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
				p.cfg.Sched.At(earliest, fire)
				return
			}
		}
		st.gaveUp = true
		st.votedAbort = true
		p.cfg.CBCHooks.CBC.Publish(cbc.Entry{
			Kind: cbc.EntryAbort, Deal: p.cfg.Spec.ID,
			Party: p.Addr, Hash: st.startHash,
		})
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
// wants its refund). raced marks claims made to front-run an observed
// pending proof transaction; their receipts are reported as race
// outcomes (success = this claim finalized the escrow first), and
// victimTip is the raced transaction's gossiped tip for fee bidders to
// outbid.
func (p *Party) claimOutcome(status escrow.Status, raced bool, victimTip uint64) {
	st := p.cbcState
	spec := p.cfg.Spec
	method, label := cbc.MethodCommitProof, LabelCommit
	if status == escrow.StatusAborted {
		method, label = cbc.MethodAbortProof, LabelAbort
	}
	claim := func(a deal.AssetRef, key string) {
		if st.claimed[key] {
			return
		}
		c, ok := p.cfg.Chains[a.Chain]
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
		// Price the race only once the proof is in hand, so a failed
		// proof fetch cannot leak fee budget on a never-submitted claim.
		tip := p.tipFor(c, label)
		var bid uint64
		if raced {
			var race bool
			tip, bid, race = p.raceTip(c, label, victimTip)
			if !race {
				return // fee budget exhausted: decline the race
			}
		}
		st.claimed[key] = true
		hooks := p.cfg.Adaptive
		p.submitTx(c, a.Escrow, method, label, args, tip, func(r *chain.Receipt) {
			if raced && hooks != nil && hooks.OnFrontRun != nil {
				hooks.OnFrontRun(p.Addr, method, bid, r.Err == nil)
			}
			// On error, someone else finalized first; that is fine.
		})
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

// corruptInfo distorts the Dinfo a deviating party registers (the
// CorruptInfo behavior): wrong timing parameters for the timelock
// protocol, a wrong start hash for the CBC. Compliant counterparties
// detect the mismatch during validation and refuse to vote.
func corruptInfo(info any) any {
	switch i := info.(type) {
	case cbc.Info:
		i.StartHash[0] ^= 0xff
		return i
	default:
		return corruptTimelockInfo(info)
	}
}
