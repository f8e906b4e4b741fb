package party

import (
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/sig"
	"xdeal/internal/timelock"
)

// startTimelock runs the timelock protocol (§5): escrow immediately, then
// an event-driven loop of transfers, validation, voting, and vote
// forwarding. A refund poke is scheduled after the deal's overall timeout
// so escrowed assets are never locked forever (weak liveness).
func (p *Party) startTimelock() {
	p.performEscrows(timelock.Info{T0: p.cfg.Spec.T0, Delta: p.cfg.Spec.Delta})

	if p.act(&action{kind: actRefund}) {
		// One Δ past the contract refund floor T0 + N·Δ, N the party
		// count: the last rung a late long-path vote may still need.
		p.cfg.Sched.At(p.timelockHorizon(), func() { p.pokeRefunds() })
	}
}

// timelockInfoOK verifies the Dinfo registered at an escrow contract.
func (p *Party) timelockInfoOK(info any) bool {
	ti, ok := info.(timelock.Info)
	return ok && ti.T0 == p.cfg.Spec.T0 && ti.Delta == p.cfg.Spec.Delta
}

// sendTimelockVotes sends the party's own commit vote to the escrow
// contracts managing its incoming assets — the incentive-compatible
// minimum. A wide vote (an altruistic party's) goes everywhere,
// collapsing the commit phase to one Δ (Figure 7's footnote).
func (p *Party) sendTimelockVotes(wide bool) {
	vote := sig.NewVoteWith(p.cfg.Memo, p.cfg.Spec.ID, string(p.Addr), p.cfg.Keys)
	self := p.cfg.Plan.Index(p.Addr)
	for i := range p.mine.Incoming {
		p.acceptedAt.add(i, self) // optimistic; failures are harmless
	}
	send := func(a deal.AssetRef) {
		p.submit(a, timelock.MethodCommit, LabelCommit, timelock.CommitArgs{
			Deal: p.cfg.Spec.ID, Vote: vote,
		}, nil)
	}
	if wide {
		for _, a := range p.cfg.Plan.Escrows {
			send(a)
		}
		return
	}
	for _, in := range p.mine.Incoming {
		send(in.Asset)
	}
}

// onTimelockEvent handles vote-accepted events: record votes landing on
// incoming escrows, and forward votes seen anywhere to incoming escrows
// that still lack them. Forwarding is the motivated behavior of §5: a
// party wants its incoming contracts to collect every vote so it gets
// paid.
func (p *Party) onTimelockEvent(ev chain.Event) {
	if ev.Kind != timelock.EventVoteAccepted {
		return
	}
	data, ok := ev.Data.(timelock.VoteEvent)
	if !ok || data.Deal != p.cfg.Spec.ID {
		return
	}
	voter := p.cfg.Plan.Index(data.Voter)
	seenAt := -1 // the incoming leg the vote was accepted at, if one of ours
	for i := range p.mine.Incoming {
		if in := &p.mine.Incoming[i]; in.Asset.Chain == ev.Chain && in.Asset.Escrow == ev.Contract {
			seenAt = i
			p.acceptedAt.add(i, voter)
		}
	}
	if data.Vote.Contains(string(p.Addr)) {
		// The path already carries our signature (or it is our own
		// vote): we have already pushed this vote as far as we can.
		return
	}
	p.forwardVote(data.Vote, seenAt)
}

// forwardVote extends the vote with the party's signature and submits
// it to every incoming leg except seenAt (where it was just accepted;
// -1 skips none) that has not already accepted, or been sent, the
// voter's vote. The extension is signed once and the same call data goes
// to every target. Both the compliant forwarding path (reacting to
// accepted-vote events) and the front-runner (reacting to mempool
// gossip, see race) go through here. A vote by a voter the deal does not
// name is never forwarded: every escrow rejects it (timelock.ErrNotVoter).
func (p *Party) forwardVote(vote sig.PathSig, seenAt int) {
	voter := p.cfg.Plan.Index(chain.Addr(vote.Voter))
	if voter < 0 {
		return
	}
	var args any // timelock.CommitArgs carrying the extended vote
	for i := range p.mine.Incoming {
		in := &p.mine.Incoming[i]
		if i == seenAt || p.acceptedAt.has(i, voter) || p.forwarded.has(i, voter) {
			continue
		}
		c, ok := p.cfg.Chains[in.Asset.Chain]
		if !ok {
			continue
		}
		fw := action{kind: actForward, on: c, tip: p.tipFor(c)}
		if !p.act(&fw) {
			continue
		}
		p.forwarded.add(i, voter)
		if args == nil {
			args = timelock.CommitArgs{
				Deal: p.cfg.Spec.ID, Vote: vote.ForwardWith(p.cfg.Memo, string(p.Addr), p.cfg.Keys),
			}
		}
		p.submitTx(c, in.Asset.Escrow, timelock.MethodCommit, LabelCommit, args, fw.tip, fw.done)
	}
}

// voterSets holds one set of voters per incoming leg of a party, as bits
// indexed by the voter's position in the deal's party list (see
// deal.Plan.Index).
type voterSets struct {
	words int      // 64-bit words per leg
	bits  []uint64 // leg i's set is bits[i*words : (i+1)*words]
}

// reset empties the sets and sizes them for legs legs and voters voters,
// keeping their storage.
func (v *voterSets) reset(legs, voters int) {
	v.words = (voters + 63) / 64
	v.bits = append(v.bits[:0], make([]uint64, legs*v.words)...)
}

// has reports whether voter is in leg's set.
func (v *voterSets) has(leg, voter int) bool {
	return v.bits[leg*v.words+voter/64]&(1<<(voter%64)) != 0
}

// add puts voter in leg's set. A voter the deal does not name (-1) is
// never recorded.
func (v *voterSets) add(leg, voter int) {
	if voter >= 0 {
		v.bits[leg*v.words+voter/64] |= 1 << (voter % 64)
	}
}

// pokeRefunds asks the contracts holding the party's deposits to refund
// them if the deal timed out without committing. It re-arms itself
// Δ-spaced while any of its own deposits is still in flight: a deal
// that starts inside an outage window reaches its horizon before its
// escrows even land, and a single fire-and-forget poke would skip the
// not-yet-registered contract forever, stranding the deposit (weak
// liveness must not depend on lucky timing).
func (p *Party) pokeRefunds() {
	if !p.active() {
		return
	}
	pending := false
	for _, ob := range p.mine.Obligations {
		key := ob.Key
		view, ok := p.escrowView(ob.Asset)
		if !ok {
			continue
		}
		if !view.Exists() {
			if p.escrowSubmitted[key] && !p.escrowConfirmed[key] {
				pending = true // own deposit still in flight; check again
			}
			continue
		}
		if view.Status() != escrow.StatusActive {
			continue
		}
		p.submit(ob.Asset, timelock.MethodRefund, LabelAbort,
			timelock.RefundArgs{Deal: p.cfg.Spec.ID}, nil)
	}
	if pending {
		spacing := p.cfg.Spec.Delta
		if spacing <= 0 {
			spacing = 10
		}
		p.cfg.Sched.After(spacing, func() { p.pokeRefunds() })
	}
}
