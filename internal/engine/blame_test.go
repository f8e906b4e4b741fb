package engine_test

import (
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/fleet"
	"xdeal/internal/party"
	"xdeal/internal/trace"
)

// TestPricedOutBlamesDeviantsOnly: on a shared arena, a transaction
// priced out of its block is adversary-induced exactly when the party
// whose bid displaced it runs a deviation strategy — whichever deal that
// party belongs to. A hedged compliant party outbidding it is fee
// pricing, not an attack; a deviant of another deal on the shared chain
// is an attack. Both cases must occur in the population.
func TestPricedOutBlamesDeviantsOnly(t *testing.T) {
	const n = 50
	runs := sharedArena(t, n, party.ProtoTimelock)
	// The population sharedArena ran, for every party's behavior.
	gen, err := fleet.NewGenerator(fleet.GenOptions{
		Seed: 7, Protocol: "timelock", AdversaryRate: 0.3, Fees: &fleet.FeeOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := gen.ArenaPopulation(0, n, fleet.ArenaOptions{DealsPerArena: n, Chains: 2, Bundles: true, Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	behavior := make(map[chain.Addr]party.Behavior)
	owner := make(map[chain.Addr]string)
	for _, setup := range pop {
		for _, p := range setup.Spec.Parties {
			behavior[p], owner[p] = setup.Behaviors[p], setup.Spec.ID
		}
	}
	var hedgedOutbids, foreignDeviantOutbids int
	for _, run := range runs {
		for _, s := range run.w.DealSpans(run.r) {
			_, by, ok := strings.Cut(s.Detail, "outbid-by=")
			if s.Kind != trace.KindQueued || !ok {
				continue
			}
			by, _, _ = strings.Cut(by, " ")
			b := behavior[chain.Addr(by)]
			deviant := len(b) > 0
			// The world hedges, so every party that runs no strategy is a
			// hedged one.
			if _, known := owner[chain.Addr(by)]; known && !deviant {
				hedgedOutbids++
			}
			if deviant && owner[chain.Addr(by)] != run.w.Spec.ID {
				foreignDeviantOutbids++
			}
			if got := s.Bucket == trace.BucketAdversary; got != deviant {
				t.Errorf("deal %s: %s outbid by %s (deviant: %v) filed as %v", run.w.Spec.ID, s.Name, by, deviant, s.Bucket)
			}
		}
	}
	if hedgedOutbids == 0 || foreignDeviantOutbids == 0 {
		t.Fatalf("population exercises %d hedged and %d foreign-deviant outbids; want both",
			hedgedOutbids, foreignDeviantOutbids)
	}
	t.Logf("%d hedged and %d foreign-deviant outbids", hedgedOutbids, foreignDeviantOutbids)
}
