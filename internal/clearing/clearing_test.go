package clearing

import (
	"errors"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/sim"
)

func TestAnnounceDeliversToAllInOrder(t *testing.T) {
	sched := sim.NewScheduler()
	svc := New(sched)
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		svc.Register(ParticipantFunc(func(spec *deal.Spec) {
			got = append(got, i)
		}))
	}
	spec := deal.BrokerSpec(100, 10)
	if err := svc.Announce(spec, 50); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("delivery order = %v, want [0 1 2]", got)
	}
	if sched.Now() != 50 {
		t.Fatalf("delivered at %d, want 50", sched.Now())
	}
}

func TestAnnounceRequiresParticipants(t *testing.T) {
	svc := New(sim.NewScheduler())
	if err := svc.Announce(deal.BrokerSpec(1, 1), 0); !errors.Is(err, ErrNoParticipants) {
		t.Fatalf("err = %v, want ErrNoParticipants", err)
	}
}

func TestAnnounceRejectsInvalidSpec(t *testing.T) {
	sched := sim.NewScheduler()
	svc := New(sched)
	svc.Register(ParticipantFunc(func(*deal.Spec) {}))
	if err := svc.Announce(&deal.Spec{}, 0); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestAnnounceRejectsFreeRiders(t *testing.T) {
	sched := sim.NewScheduler()
	svc := New(sched)
	delivered := false
	svc.Register(ParticipantFunc(func(*deal.Spec) { delivered = true }))

	coins := deal.AssetRef{Chain: "c", Token: "t", Escrow: "e", Kind: deal.Fungible, Amount: 1}
	spec := &deal.Spec{
		ID:      "freeride",
		Parties: []chain.Addr{"a", "b", "leech"},
		Transfers: []deal.Transfer{
			{From: "a", To: "b", Asset: coins},
			{From: "b", To: "a", Asset: coins},
			{From: "a", To: "leech", Asset: coins},
		},
		T0: 1, Delta: 1,
	}
	err := svc.Announce(spec, 0)
	if !errors.Is(err, ErrIllFormed) {
		t.Fatalf("err = %v, want ErrIllFormed", err)
	}
	sched.Run()
	if delivered {
		t.Fatal("ill-formed deal delivered")
	}

	// With validation off, the broadcast goes through (the timelock
	// protocol can handle ill-formed deals if parties insist, §5.1).
	svc.Validate = false
	if err := svc.Announce(spec, 0); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if !delivered {
		t.Fatal("deal not delivered with validation off")
	}
}

func TestAnnouncePastTimeDeliversNow(t *testing.T) {
	sched := sim.NewScheduler()
	sched.RunUntil(100)
	svc := New(sched)
	var at sim.Time = -1
	svc.Register(ParticipantFunc(func(*deal.Spec) { at = sched.Now() }))
	if err := svc.Announce(deal.BrokerSpec(1000, 10), 10); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if at != 100 {
		t.Fatalf("delivered at %d, want 100 (clamped to now)", at)
	}
}
