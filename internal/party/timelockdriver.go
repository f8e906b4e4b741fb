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
	send := func(a deal.AssetRef, key string) {
		p.markAccepted(key, p.Addr) // optimistic; failures are harmless
		p.submit(a, timelock.MethodCommit, LabelCommit, timelock.CommitArgs{
			Deal: p.cfg.Spec.ID, Vote: vote,
		}, nil)
	}
	if wide {
		for j, a := range p.cfg.Plan.Escrows {
			send(a, p.cfg.Plan.EscrowKeys[j])
		}
		return
	}
	for _, in := range p.mine.Incoming {
		send(in.Asset, in.Key)
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
	seenAt := "" // the incoming escrow the vote was accepted at, if one of ours
	for i := range p.mine.Incoming {
		if in := &p.mine.Incoming[i]; in.Asset.Chain == ev.Chain && in.Asset.Escrow == ev.Contract {
			seenAt = in.Key
			p.markAccepted(seenAt, data.Voter)
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
// it to every incoming escrow except seenAt (where it was just
// accepted; "" skips none) that has not already accepted, or been
// sent, the voter's vote. The extension is signed once and the same
// call data goes to every target. Both the compliant forwarding path
// (reacting to accepted-vote events) and the front-runner (reacting to
// mempool gossip, see race) go through here.
func (p *Party) forwardVote(vote sig.PathSig, seenAt string) {
	voter := chain.Addr(vote.Voter)
	var args any // timelock.CommitArgs carrying the extended vote
	for i := range p.mine.Incoming {
		in := &p.mine.Incoming[i]
		key := in.Key
		if key == seenAt || p.acceptedAt[key][voter] || p.forwarded[key][voter] {
			continue
		}
		c, ok := p.cfg.Chains[in.Asset.Chain]
		if !ok {
			continue
		}
		fw := action{kind: actForward, on: c, tip: p.tipFor(c, LabelCommit)}
		if !p.act(&fw) {
			continue
		}
		mark(p.forwarded, key, voter)
		if args == nil {
			args = timelock.CommitArgs{
				Deal: p.cfg.Spec.ID, Vote: vote.ForwardWith(p.cfg.Memo, string(p.Addr), p.cfg.Keys),
			}
		}
		p.submitTx(c, in.Asset.Escrow, timelock.MethodCommit, LabelCommit, args, fw.tip, fw.done)
	}
}

// markAccepted records that an escrow contract has accepted a vote.
func (p *Party) markAccepted(escrowKey string, voter chain.Addr) {
	mark(p.acceptedAt, escrowKey, voter)
}

// mark records voter under escrowKey in a per-escrow voter set.
func mark(sets map[string]map[chain.Addr]bool, escrowKey string, voter chain.Addr) {
	if sets[escrowKey] == nil {
		sets[escrowKey] = make(map[chain.Addr]bool)
	}
	sets[escrowKey][voter] = true
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
