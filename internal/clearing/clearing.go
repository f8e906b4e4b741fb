// Package clearing models the market-clearing service of §4.1: the
// component that "discovers and broadcasts the participants, the proposed
// transfers, and possibly other deal-specific information".
//
// The paper is explicit that the service may be centralized but need not
// be trusted, because each party decides for itself whether to
// participate: every party independently re-validates everything the
// clearing service announces (deal structure, well-formedness, timelock
// parameters, and later the on-chain Dinfo). The service here therefore
// does the minimum the protocols require — deliver the same Spec to every
// registered participant at a broadcast time — plus the validation that a
// prudent participant performs on receipt.
package clearing

import (
	"errors"
	"fmt"

	"xdeal/internal/deal"
	"xdeal/internal/sim"
)

// Participant is anything that can receive a deal announcement. Parties
// (and watchtowers, observers, loggers) implement it.
type Participant interface {
	// OnDeal is invoked when the clearing service announces a deal the
	// participant is registered for.
	OnDeal(spec *deal.Spec)
}

// ParticipantFunc adapts a function to the Participant interface.
type ParticipantFunc func(spec *deal.Spec)

// OnDeal implements Participant.
func (f ParticipantFunc) OnDeal(spec *deal.Spec) { f(spec) }

// Errors returned by Announce.
var (
	ErrNoParticipants = errors.New("clearing: no participants registered")
	ErrIllFormed      = errors.New("clearing: deal digraph is not strongly connected")
)

// Service broadcasts deals to registered participants over the simulated
// scheduler. The zero value is not usable; create one with New.
type Service struct {
	sched *sim.Scheduler
	// participants in registration order, for deterministic delivery.
	participants []Participant
	// Validate rejects ill-formed deals before broadcast when true.
	// Prudent parties would refuse them anyway (§5.1: the remaining
	// parties could improve their payoff by excluding free riders), so
	// refusing at the clearing desk is the default.
	Validate bool
}

// New creates a clearing service on the given scheduler.
func New(sched *sim.Scheduler) *Service {
	return &Service{sched: sched, Validate: true}
}

// Register adds a participant; announcements are delivered in
// registration order.
func (s *Service) Register(p Participant) {
	s.participants = append(s.participants, p)
}

// Announce validates the deal and delivers it to every participant at
// the given time (or immediately if at ≤ now).
func (s *Service) Announce(spec *deal.Spec, at sim.Time) error {
	if len(s.participants) == 0 {
		return ErrNoParticipants
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("clearing: %w", err)
	}
	if s.Validate && !spec.WellFormed() {
		free := spec.FreeRiders()
		return fmt.Errorf("%w: free riders %v", ErrIllFormed, free)
	}
	s.sched.After(at-s.sched.Now(), func() {
		for _, p := range s.participants {
			p.OnDeal(spec)
		}
	})
	return nil
}
