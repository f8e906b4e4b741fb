package party_test

import (
	"fmt"
	"testing"

	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/hedge"
	"xdeal/internal/htlc"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/timelock"
	"xdeal/internal/token"
)

// topicOf is the topic a chain publishes a payload under.
func topicOf(v any) string {
	if t, ok := v.(interface{ Topic() string }); ok {
		return t.Topic()
	}
	return ""
}

// everyEvent lists, for every event kind any contract in the tree emits,
// payloads naming the party's own deal and a foreign one, plus payloads
// of the wrong type for the kind, each under the topic a chain would
// publish it with. voter signs the vote events, so a timelock party shown
// one could really forward it.
func everyEvent(own string, at deal.AssetRef, voter chain.Addr, keys sig.KeyPair) []chain.Event {
	var evs []chain.Event
	add := func(kind string, data any) {
		evs = append(evs, chain.Event{
			Chain: at.Chain, Contract: at.Escrow, Kind: kind, Data: data, Sender: voter, Height: 1, Time: 1,
			Topic: topicOf(data),
		})
	}
	for _, id := range []string{own, "someone-else's-deal"} {
		add(escrow.EventEscrowed, escrow.EscrowedEvent{Deal: id, Party: voter, Amount: 5})
		add(escrow.EventTransferred, escrow.TransferredEvent{Deal: id, From: voter, To: "x", Amount: 5})
		add(escrow.EventCommitted, escrow.OutcomeEvent{Deal: id, Status: escrow.StatusCommitted})
		add(escrow.EventAborted, escrow.OutcomeEvent{Deal: id, Status: escrow.StatusAborted})
		add(timelock.EventVoteAccepted, timelock.VoteEvent{
			Deal: id, Voter: voter, Vote: sig.NewVote(id, string(voter), keys),
		})
		add(hedge.EventBound, hedge.BoundEvent{Deal: id, Insured: voter, Collateral: 9, Premium: 1})
		add(hedge.EventSettled, hedge.SettledEvent{Deal: id, Insured: voter, Payout: true, Amount: 9})
		// Right payload, wrong kind: the kind decides who handles it.
		add(hedge.EventSettled, escrow.OutcomeEvent{Deal: id, Status: escrow.StatusAborted})
		add("mint", escrow.EscrowedEvent{Deal: id, Party: voter, Amount: 5})
	}
	add("mint", token.MintArgs{To: voter, Amount: 5})
	add("transfer", token.TransferFromArgs{From: voter, To: "x", Amount: 5})
	add(htlc.EventLocked, htlc.LockedEvent{ID: own, Claimant: voter, Amount: 5})
	add(htlc.EventClaimed, htlc.ClaimedEvent{ID: own, Claimant: voter})
	add(htlc.EventRefunded, htlc.RefundedEvent{ID: own, Refundee: voter})
	for _, kind := range []string{
		escrow.EventEscrowed, escrow.EventTransferred, escrow.EventCommitted,
		escrow.EventAborted, timelock.EventVoteAccepted,
	} {
		add(kind, nil)
		add(kind, own) // the deal id itself is not a payload
	}
	return evs
}

// everyGossip lists pending transactions of every kind a deal's parties
// publish, from the party itself and from a counterparty, for the party's
// own deal and a foreign one, plus payloads no handler reads, each under
// the topic a chain would gossip it with.
func everyGossip(own string, at deal.AssetRef, self, voter chain.Addr, keys sig.KeyPair) []chain.PendingTx {
	var txs []chain.PendingTx
	for _, sender := range []chain.Addr{self, voter} {
		add := func(method string, args any) {
			txs = append(txs, chain.PendingTx{
				Chain: at.Chain, Sender: sender, Contract: at.Escrow, Method: method, Args: args, Tip: 3,
				Topic: topicOf(args),
			})
		}
		for _, id := range []string{own, "someone-else's-deal"} {
			add(timelock.MethodCommit, timelock.CommitArgs{Deal: id, Vote: sig.NewVote(id, string(voter), keys)})
			add(cbc.MethodCommitProof, cbc.ProofArgs{Deal: id})
			add(cbc.MethodAbortProof, cbc.ProofArgs{Deal: id})
			add(timelock.MethodRefund, timelock.RefundArgs{Deal: id})
			add(escrow.MethodEscrow, escrow.EscrowArgs{Deal: id, Amount: 5})
		}
		add(timelock.MethodCommit, nil)
		add(cbc.MethodCommitProof, own) // the deal id itself is not a payload
	}
	return txs
}

// TestFilterRejectsOnlyIgnoredEvents checks the condition that makes
// filtering at dispatch and at gossip sound: whatever one of the party's
// filters rejects — a chain event, or a pending transaction its
// front-runner handler would see — that handler would have ignored: it
// submits nothing, schedules nothing and changes no field of the party.
// It is checked against the handlers, not assumed from them, after every
// step of a live run of each protocol: a handler that learns to react to
// a new kind without its filter letting that kind through fails here
// instead of silently never being called.
func TestFilterRejectsOnlyIgnoredEvents(t *testing.T) {
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		spec := deal.BrokerSpec(3000, 1000)
		w, err := engine.Build(spec, engine.Options{Seed: 5, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		w.Start()
		var events, gossip struct{ wanted, rejected int }
		// Probe after every scheduler step: the windows that matter are
		// the few ticks between a block changing contract state and the
		// party's own notification of it, when an extra poll would act
		// early.
		for more := true; more; more = w.Sched.Step() {
			for _, addr := range spec.Parties {
				p := w.Parties[addr]
				voter := spec.Parties[0]
				if voter == addr {
					voter = spec.Parties[1]
				}
				state, pending := p.State(), w.Sched.Pending()
				// ignored hands a rejected item to its handler and checks
				// that nothing happened.
				ignored := func(item any, handle func()) {
					handle()
					if got := p.State(); got != state {
						t.Fatalf("%s %s at t=%d: handler changed the party on filtered %T %+v:\nbefore:\n%s\nafter:\n%s",
							proto, addr, w.Sched.Now(), item, item, state, got)
					}
					if got := w.Sched.Pending(); got != pending {
						t.Fatalf("%s %s at t=%d: handler scheduled %d events on filtered %T %+v",
							proto, addr, w.Sched.Now(), got-pending, item, item)
					}
				}
				for _, at := range spec.Escrows() {
					for _, ev := range everyEvent(spec.ID, at, voter, w.Keys(voter)) {
						if p.Wants(ev) {
							events.wanted++
							continue
						}
						events.rejected++
						ignored(ev, func() { p.OnChainEvent(ev) })
					}
					for _, ptx := range everyGossip(spec.ID, at, addr, voter, w.Keys(voter)) {
						if p.WantsGossip(ptx) {
							gossip.wanted++
							continue
						}
						gossip.rejected++
						ignored(ptx, func() { p.OnGossip(ptx) })
					}
				}
			}
		}
		if events.wanted == 0 || events.rejected == 0 || gossip.wanted == 0 || gossip.rejected == 0 {
			t.Fatalf("%s: tables do not exercise both sides: events %+v, gossip %+v", proto, events, gossip)
		}
		// The filter lets through what the protocol runs on: the run the
		// probing interleaved with still ends in a commit.
		if r := w.Evaluate(); !r.AllCommitted {
			t.Fatalf("%s: %s", proto, r.Summary())
		}
	}
}

// TestFilterAdmitsOwnDealOnly pins the filter itself: escrow-phase and
// outcome events of the party's deal pass for both protocols, accepted
// votes only for a timelock party, and nothing of another deal.
func TestFilterAdmitsOwnDealOnly(t *testing.T) {
	spec := deal.BrokerSpec(3000, 1000)
	at := spec.Escrows()[0]
	for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
		p := party.New("alice", party.Config{Spec: spec, Protocol: proto})
		got := make(map[string]bool)
		for _, ev := range everyEvent(spec.ID, at, "bob", sig.GenerateKeyPair("bob")) {
			if p.Wants(ev) {
				got[fmt.Sprintf("%s/%T", ev.Kind, ev.Data)] = true
				if d, ok := ev.Data.(escrow.OutcomeEvent); ok && d.Deal != spec.ID {
					t.Fatalf("%s: filter admits a foreign deal's %s", proto, ev.Kind)
				}
			}
		}
		want := map[string]bool{
			"escrowed/escrow.EscrowedEvent": true, "transferred/escrow.TransferredEvent": true,
			"committed/escrow.OutcomeEvent": true, "aborted/escrow.OutcomeEvent": true,
		}
		if proto == party.ProtoTimelock {
			want["vote-accepted/timelock.VoteEvent"] = true
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: filter admits %v, want %v", proto, got, want)
		}
	}
}

// TestPollingAllocatesNothing guards the loops every escrow event of a
// deal drives on every one of its parties: on a settled world a full
// re-validation and transfer scan — status queries included — allocates
// nothing.
func TestPollingAllocatesNothing(t *testing.T) {
	spec := deal.RingSpec(6, 6000, 1000)
	w, err := engine.Build(spec, engine.Options{Seed: 1, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	if r := w.Run(); !r.AllCommitted {
		t.Fatal(r.Summary())
	}
	for _, addr := range spec.Parties {
		p := w.Parties[addr]
		if allocs := testing.AllocsPerRun(50, p.Repoll); allocs != 0 {
			t.Errorf("%s: tryTransfers + checkValidation allocate %v times per poll, want 0", addr, allocs)
		}
		if !p.Validated() {
			t.Errorf("%s: re-validation on the settled world failed", addr)
		}
	}
}

// TestForwardedVoteSignedOncePerObservation: a party relaying one
// observed vote to several of its incoming escrows extends the path once
// and publishes the same signature bytes everywhere, instead of signing
// the identical message again per target.
func TestForwardedVoteSignedOncePerObservation(t *testing.T) {
	spec := deal.DenseSpec(4, 3, 5000, 1000)
	w, err := engine.Build(spec, engine.Options{Seed: 3, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	// A forwarder's own signature, by identity of its bytes: relays of
	// one observation share them, a later observation of the same vote
	// (accepted elsewhere) may sign afresh.
	relays, distinct := 0, make(map[*byte]bool)
	for _, c := range w.Chains {
		c.SubscribeMempool("", nil, func(ptx chain.PendingTx) {
			if args, ok := ptx.Args.(timelock.CommitArgs); ok && args.Vote.Len() >= 2 {
				relays++
				distinct[&args.Vote.Sigs[args.Vote.Len()-1][0]] = true
			}
		})
	}
	if r := w.Run(); !r.AllCommitted {
		t.Fatal(r.Summary())
	}
	if relays < 10 || len(distinct) >= relays {
		t.Fatalf("%d relayed votes carry %d separately signed extensions: none was reused across targets",
			relays, len(distinct))
	}
	t.Logf("%d relayed votes, %d signatures", relays, len(distinct))
}
