// Adversarial gallery: every deviation from the paper's adversary model,
// applied to the broker deal, with the engine verifying that compliant
// parties never end up worse off (Property 1) and never lose assets to
// permanent escrow (Property 2).
//
// The gallery also demonstrates the two negative results the paper
// argues: naive fixed timeouts break safety (§5's dilemma), and the
// timelock protocol cannot tolerate asynchrony (§6's impossibility),
// while the CBC remains atomic under both.
package main

import (
	"fmt"
	"log"

	"xdeal"
	"xdeal/internal/chain"
	"xdeal/internal/engine"
	"xdeal/internal/party"
)

func run(title string, spec *xdeal.Spec, opts xdeal.Options) *xdeal.Result {
	r, err := xdeal.Run(spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	verdict := "SAFE"
	if len(r.SafetyViolations) > 0 {
		verdict = "SAFETY VIOLATION"
	}
	// The four names the sweep table counts outcomes under.
	outcome := "unsettled"
	switch r.Outcome() {
	case engine.OutcomeCommitted:
		outcome = "committed"
	case engine.OutcomeAborted:
		outcome = "aborted"
	case engine.OutcomeMixed:
		outcome = "mixed"
	}
	fmt.Printf("%-46s outcome=%-10s %s\n", title, outcome, verdict)
	return r
}

func main() {
	fmt.Println("=== Deviating-party gallery (broker deal) ===")
	fmt.Println()

	deviations := []struct {
		name string
		b    xdeal.Behavior
	}{
		{"bob skips escrow", xdeal.Behavior{xdeal.SkipEscrow{}}},
		{"alice skips her transfers", xdeal.Behavior{xdeal.SkipTransfers{}}},
		{"carol never votes", xdeal.Behavior{xdeal.SkipVoting{}}},
		{"alice refuses to forward votes", xdeal.Behavior{xdeal.NoForwarding{}}},
		{"bob crashes mid-deal", xdeal.Behavior{xdeal.Crash{At: 1000}}},
		{"carol votes after every deadline", xdeal.Behavior{xdeal.VoteDelay{By: 20000}}},
	}

	fmt.Println("--- timelock protocol ---")
	who := []xdeal.Addr{"bob", "alice", "carol", "alice", "bob", "carol"}
	for i, d := range deviations {
		spec := xdeal.BrokerDeal(2000, 1000)
		run(d.name, spec, xdeal.Options{
			Seed:     uint64(i + 1),
			Protocol: xdeal.Timelock,
			Behaviors: map[xdeal.Addr]xdeal.Behavior{
				who[i]: d.b,
			},
		})
	}

	fmt.Println()
	fmt.Println("--- CBC protocol (plus CBC-specific attacks) ---")
	cbcDeviations := append(deviations, []struct {
		name string
		b    xdeal.Behavior
	}{
		{"bob votes abort immediately", xdeal.Behavior{xdeal.AbortImmediately{}}},
		{"carol rescinds right after committing", xdeal.Behavior{xdeal.CommitThenAbort{After: 1}}},
	}...)
	cbcWho := append(who, "bob", "carol")
	for i, d := range cbcDeviations {
		spec := xdeal.BrokerDeal(2000, 1000)
		run(d.name, spec, xdeal.Options{
			Seed:     uint64(i + 1),
			Protocol: xdeal.CBC,
			F:        1,
			Behaviors: map[xdeal.Addr]xdeal.Behavior{
				cbcWho[i]: d.b,
			},
		})
	}

	fmt.Println()
	fmt.Println("--- the ablations: why the design is the way it is ---")

	// Naive fixed timeouts (§5's dilemma): a last-minute voter splits the
	// outcome across escrows.
	countBroken := func(fixed bool) (broken, runs int) {
		for _, voteDelay := range []xdeal.Duration{2860, 2880, 2900, 2920} {
			for seed := uint64(0); seed < 20; seed++ {
				spec := xdeal.RingDeal(3, 2000, 1000)
				r, err := engine.Build(spec, engine.Options{
					Seed:         seed,
					Protocol:     party.ProtoTimelock,
					FixedTimeout: fixed,
					Behaviors: map[chain.Addr]party.Behavior{
						"p00": {party.VoteDelay{By: voteDelay}},
					},
				})
				if err != nil {
					log.Fatal(err)
				}
				res := r.Run()
				runs++
				if !res.Atomic() || len(res.SafetyViolations) > 0 {
					broken++
				}
			}
		}
		return broken, runs
	}
	broken, runs := countBroken(true)
	fmt.Printf("%-46s %d of %d runs produced inconsistent outcomes\n",
		"fixed (path-independent) timeouts:", broken, runs)
	broken, runs = countBroken(false)
	fmt.Printf("%-46s %d of %d runs produced inconsistent outcomes\n",
		"path-scaled timeouts (t0 + |p|·Δ):", broken, runs)
}
