package party

import (
	"testing"

	"xdeal/internal/cbc"
	"xdeal/internal/deal"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// A compliant party that voted commit waits at least Δ after that vote
// before rescinding (§6). Simulation time starts at 0, so a vote cast
// in the very first instant stamps votedCommitAt = 0 — indistinguishable
// from "never voted" to a zero-value sentinel check. The explicit voted
// flag must gate the wait; regression test for the give-up path
// rescinding immediately on t=0 votes.
func TestGiveUpWaitsDeltaAfterTimeZeroCommitVote(t *testing.T) {
	sched := sim.NewScheduler()
	c := cbc.New(cbc.Config{Tag: "cbc/tz", F: 1, Schedule: gas.DefaultSchedule()}, sched, sim.NewRNG(3))
	spec := deal.BrokerSpec(2000, 1000)
	p := New("alice", Config{Spec: spec, Protocol: ProtoCBC, Sched: sched,
		Patience: 100, CBCHooks: &CBCHooks{CBC: c}})
	// The deal must be live on the CBC, or give-up sees it as decided.
	c.Publish(cbc.Entry{Kind: cbc.EntryStartDeal, Deal: spec.ID, Party: "alice", Parties: spec.Parties})
	// A commit vote published at t = 0: the zero-value timestamp case.
	p.cbcState.started = true
	p.cbcState.votedCommit, p.cbcState.votedCommitAt = true, 0
	p.scheduleGiveUp()

	sched.RunUntil(sim.Time(spec.Delta) - 1)
	if p.cbcState.gaveUp {
		t.Fatal("rescinded before waiting Δ after its t=0 commit vote")
	}
	sched.Run()
	if !p.cbcState.gaveUp {
		t.Fatal("patience elapsed and Δ respected, yet the party never rescinded")
	}
	if !p.cbcState.votedAbort {
		t.Fatal("give-up did not record the abort vote")
	}
}
