package watchtower

import (
	"fmt"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/timelock"
)

// offlineScenario builds the §5.3 narrative: Bob votes at the last
// moment; Alice and Carol are driven offline before they can forward his
// vote to the ticket chain.
func offlineScenario(t *testing.T, seed uint64) *engine.World {
	t.Helper()
	spec := deal.BrokerSpec(2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Seed:     seed,
		Protocol: party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{
			"bob":   {party.VoteDelay{By: 2750}},
			"alice": {party.Offline{From: 2500, Until: 6500}},
			"carol": {party.Offline{From: 2500, Until: 6500}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOfflineWindowLetsBobKeepBoth(t *testing.T) {
	// Without a watchtower, the coin escrow commits (it has all three
	// votes) while the ticket escrow times out (nobody forwarded Bob's
	// vote there): Bob pockets the coins and keeps his tickets. The
	// paper calls this outcome "technically correct" because Alice and
	// Carol deviated by going offline — the engine must report no
	// Property 1 violation for any compliant party.
	w := offlineScenario(t, 31)
	r := w.Run()

	coin := r.Outcomes["coinchain/coin-escrow"]
	tix := r.Outcomes["ticketchain/ticket-escrow"]
	if coin != escrow.StatusCommitted || tix != escrow.StatusAborted {
		t.Skipf("timing did not reproduce the window (coin=%s, tickets=%s); scenario depends on vote landing near the deadline", coin, tix)
	}
	if owner := r.FinalTokenOwners["ticketchain/ticket-escrow"]["seat-1A"]; owner != "bob" {
		t.Fatalf("ticket owner = %s, want bob (refund)", owner)
	}
	if d := r.FungibleDelta["bob"]["coinchain/coin-escrow"]; d != 100 {
		t.Fatalf("bob coin delta = %+d, want +100", d)
	}
	if len(r.SafetyViolations) > 0 {
		t.Fatalf("offline parties are deviating; no compliant violation expected:\n%s", r.Summary())
	}
}

func TestWatchtowerRescuesOfflineClient(t *testing.T) {
	// Same scenario, but Carol delegated to a watchtower. The tower
	// observes Bob's last-moment vote on the coin chain and forwards it
	// to the ticket chain in Carol's name, so the whole deal commits and
	// Carol receives her tickets.
	w := offlineScenario(t, 31)
	tower := New(Config{
		Client:     "carol",
		ClientKeys: w.Keys("carol"),
		Spec:       w.Spec,
		Chains:     w.Chains,
		Sched:      w.Sched,
	})
	tower.Start()

	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("watchtower failed to rescue the deal:\n%s", r.Summary())
	}
	if owner := r.FinalTokenOwners["ticketchain/ticket-escrow"]["seat-1A"]; owner != "carol" {
		t.Fatalf("ticket owner = %s, want carol", owner)
	}
	if tower.Forwards == 0 {
		t.Fatal("tower never forwarded a vote; rescue happened by accident")
	}
}

func TestWatchtowerPokesRefundForCrashedClient(t *testing.T) {
	// Carol escrows but never votes and never reclaims (crashed client);
	// her 101 coins would stay locked past the timeout. Her tower
	// reclaims them.
	spec := deal.BrokerSpec(2000, 1000)
	build := func() *engine.World {
		w, err := engine.Build(spec, engine.Options{
			Seed:     32,
			Protocol: party.ProtoTimelock,
			Behaviors: map[chain.Addr]party.Behavior{
				"carol": {party.SkipVoting{}, party.SkipRefundPoke{}},
				// Bob keeps his refund poke; only carol is at risk.
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	// Control: without the tower, carol's deposit stays locked (the
	// engine does not flag it — she is deviating — but the coins sit in
	// the contract).
	w := build()
	r := w.Run()
	if st := r.Outcomes["coinchain/coin-escrow"]; st != escrow.StatusActive {
		t.Fatalf("expected carol's deposit locked, got %s", st)
	}

	// With the tower, the refund lands.
	spec = deal.BrokerSpec(2000, 1000)
	w = build()
	tower := New(Config{
		Client:     "carol",
		ClientKeys: w.Keys("carol"),
		Spec:       w.Spec,
		Chains:     w.Chains,
		Sched:      w.Sched,
	})
	tower.Start()
	r = w.Run()
	if st := r.Outcomes["coinchain/coin-escrow"]; st != escrow.StatusAborted {
		t.Fatalf("coin escrow = %s, want aborted (tower poke)", st)
	}
	if d := r.FungibleDelta["carol"]["coinchain/coin-escrow"]; d != 0 {
		t.Fatalf("carol delta = %+d, want 0 after refund", d)
	}
	if tower.Pokes == 0 {
		t.Fatal("tower reported no pokes")
	}
}

func TestWatchtowerIdleWhenClientHealthy(t *testing.T) {
	// With a fully compliant client the tower should not need to poke
	// refunds; forwarding may happen (it races the client) but must not
	// break anything.
	spec := deal.BrokerSpec(2000, 1000)
	w, err := engine.Build(spec, engine.Options{Seed: 33, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	tower := New(Config{
		Client:     "carol",
		ClientKeys: w.Keys("carol"),
		Spec:       w.Spec,
		Chains:     w.Chains,
		Sched:      w.Sched,
	})
	tower.Start()
	r := w.Run()
	if !r.AllCommitted {
		t.Fatalf("tower presence broke a healthy deal:\n%s", r.Summary())
	}
	if tower.Pokes != 0 {
		t.Fatalf("tower poked %d refunds on a committed deal", tower.Pokes)
	}
}

// TestTowerForwardWaitsForIncomingEscrow: a vote the tower sees before
// its client's incoming escrow is registered reaches that escrow once it
// is. In a ring-3 the client p01 votes, but is offline while p02's vote
// is accepted at its outgoing escrow (about t = 30 to 34), so only the
// tower can carry that vote to the incoming one. The tower is shown the
// vote before the deal starts; a forward sent then is rejected (escrow:
// deal not registered), and had it marked the vote as sent, the later
// sighting would be skipped: the client's incoming escrow would refund
// while its outgoing one commits, and the client would lose its asset.
func TestTowerForwardWaitsForIncomingEscrow(t *testing.T) {
	spec := deal.RingSpec(3, 2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Protocol:  party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"p01": {party.Offline{From: 31, Until: 35}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tower := New(Config{Client: "p01", ClientKeys: w.Keys("p01"), Spec: w.Spec, Chains: w.Chains, Sched: w.Sched})
	tower.Start()
	out := spec.Transfers[1].Asset // p01's outgoing escrow, where p02 votes
	c := w.Chains[out.Chain]
	vote := sig.NewVoteWith(c.Memo(), spec.ID, "p02", w.Keys("p02"))
	tower.onEvent(chain.Event{
		Chain: out.Chain, Contract: out.Escrow, Kind: timelock.EventVoteAccepted, Sender: "p02",
		Data: timelock.CommitArgs{Deal: spec.ID, Vote: vote}, Topic: spec.ID,
	})
	r := w.Run()
	if !r.AllCommitted || r.FungibleDelta["p01"]["chain00/esc00"] != 100 {
		t.Fatalf("deal did not commit everywhere:\n%s", r.Summary())
	}
}

// snapshots records what each commit transaction's call data and
// receipt, each accepted-vote event and each vote a test adds read when
// first seen, to check after the run that none of them changed. A write
// made before a transaction's receipt is caught another way: each commit
// transaction carries its sender's signature last (its own vote, or its
// own forward; the tower signs as its client), so a path its forwarder
// shares with another forwarder's would read the other's hop.
type snapshots struct {
	what    []string
	value   []func() string
	first   []string
	signers []string // commit receipts whose last signer is not their sender
}

func (s *snapshots) add(what string, value func() string) {
	s.what, s.value, s.first = append(s.what, what), append(s.value, value), append(s.first, value())
}

// watch records every commit receipt and accepted-vote event of w.
func (s *snapshots) watch(w *engine.World) {
	for _, c := range w.Chains {
		c.SubscribeReceipts(func(r *chain.Receipt) {
			if r.Tx.Method == timelock.MethodCommit {
				hops := r.Tx.Args.(timelock.CommitArgs).Vote.Hops
				if last := hops[len(hops)-1].Signer; last != string(r.Tx.Sender) {
					s.signers = append(s.signers, fmt.Sprintf("%s sent a path signed last by %s", r.Tx.Sender, last))
				}
				s.add("receipt", func() string {
					return fmt.Sprintf("%s %d %d %v %v %v", r.Tx.Sender, r.Height, r.Time, r.Tx.Args, r.Result, r.Err)
				})
			}
		})
		c.Subscribe(func(ev chain.Event) {
			if ev.Kind == timelock.EventVoteAccepted {
				s.add("event", func() string { return fmt.Sprint(ev) })
			}
		})
	}
}

// check fails t if anything recorded reads differently now.
func (s *snapshots) check(t *testing.T, min int) {
	t.Helper()
	if len(s.first) < min {
		t.Fatalf("%d records: the run shows nothing", len(s.first))
	}
	if len(s.signers) > 0 {
		t.Fatalf("commit call data written after it was built: %v", s.signers)
	}
	for i, f := range s.value {
		if now := f(); now != s.first[i] {
			t.Fatalf("%s changed after it was seen:\n was %s\n now %s", s.what[i], s.first[i], now)
		}
	}
}

// TestForwardedPathsLeaveOriginalsIntact: an accepted-vote event
// carries the path its transaction carried (package sig never writes a
// built path), so forwarding one must not write it. After each run,
// every commit transaction's call data and receipt, every accepted-vote
// event and each vote shown by hand read as they did when first seen.
func TestForwardedPathsLeaveOriginalsIntact(t *testing.T) {
	t.Run("held", func(t *testing.T) {
		// A ring-3 where a front-runner holds a vote published before
		// its incoming escrow exists, and the tower holds one for its
		// client, shown to it before the deal starts.
		spec := deal.RingSpec(3, 2000, 1000)
		w, err := engine.Build(spec, engine.Options{
			Protocol: party.ProtoTimelock,
			Behaviors: map[chain.Addr]party.Behavior{
				"p00": {party.FrontRun{}},
				"p01": {party.Offline{From: 31, Until: 35}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tower := New(Config{Client: "p01", ClientKeys: w.Keys("p01"), Spec: w.Spec, Chains: w.Chains, Sched: w.Sched})
		tower.Start()
		var s snapshots
		s.watch(w)

		first, out := spec.Transfers[0].Asset, spec.Transfers[1].Asset // p00's and p01's outgoing
		shown := sig.NewVoteWith(w.Chains[out.Chain].Memo(), spec.ID, "p02", w.Keys("p02"))
		s.add("vote shown to the tower", func() string { return fmt.Sprint(shown) })
		tower.onEvent(chain.Event{
			Chain: out.Chain, Contract: out.Escrow, Kind: timelock.EventVoteAccepted, Sender: "p02",
			Data: timelock.CommitArgs{Deal: spec.ID, Vote: shown}, Topic: spec.ID,
		})
		// p01's vote, published once the parties have started but
		// before any escrow is registered: p00 races it from the mempool
		// to its incoming escrow, which does not exist yet, and holds it.
		early := sig.NewVoteWith(w.Chains[first.Chain].Memo(), spec.ID, "p01", w.Keys("p01"))
		s.add("vote published early", func() string { return fmt.Sprint(early) })
		w.Start()
		w.Sched.After(1, func() {
			w.Chains[first.Chain].Submit(&chain.Tx{
				Sender: "p01", Contract: first.Escrow, Method: timelock.MethodCommit, Label: party.LabelCommit,
				Args: timelock.CommitArgs{Deal: spec.ID, Vote: early},
			})
		})
		w.Sched.Run()
		if r := w.Evaluate(); !r.AllCommitted {
			t.Fatalf("deal did not commit everywhere:\n%s", r.Summary())
		}
		if tower.Forwards == 0 {
			t.Fatal("the tower forwarded nothing")
		}
		s.check(t, 20)
	})
	t.Run("shared", func(t *testing.T) {
		// A dense deal: several parties watch each escrow, so several
		// forward the path of one accepted-vote event.
		w, err := engine.Build(deal.DenseSpec(4, 3, 5000, 1000), engine.Options{Seed: 3, Protocol: party.ProtoTimelock})
		if err != nil {
			t.Fatal(err)
		}
		var s snapshots
		s.watch(w)
		if r := w.Run(); !r.AllCommitted {
			t.Fatalf("deal did not commit everywhere:\n%s", r.Summary())
		}
		s.check(t, 40)
	})
}
