// Watchtower: the §5.3 mitigation, shown end to end.
//
// "Any timelock-based commit protocol has a window during which parties
// may lose their assets by going offline at the wrong time. The Lightning
// payment network employs watchtowers, parties that monitor escrow
// contracts and step in to act on the behalf of off-line parties."
//
// The scenario: Bob votes at the last allowed moment; Alice and Carol are
// driven offline (a denial-of-service attack) before they can forward his
// vote to the ticket chain. Without help, the coin escrow commits while
// the ticket escrow times out — Bob pockets the coins AND keeps his
// tickets. With a watchtower holding Carol's delegation, the vote gets
// forwarded in her name and the whole deal commits.
package main

import (
	"fmt"
	"log"

	"xdeal"
	"xdeal/internal/engine"
	"xdeal/internal/party"
	"xdeal/internal/watchtower"
)

func buildScenario() *engine.World {
	spec := xdeal.BrokerDeal(2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Seed:     31,
		Protocol: party.ProtoTimelock,
		Behaviors: map[xdeal.Addr]xdeal.Behavior{
			"bob":   {xdeal.VoteDelay{By: 2750}},              // votes just before t0+Δ
			"alice": {xdeal.Offline{From: 2500, Until: 6500}}, // DoS window covers
			"carol": {xdeal.Offline{From: 2500, Until: 6500}}, // the forwarding deadline
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	return w
}

func main() {
	fmt.Println("=== §5.3: the offline window and its watchtower ===")
	fmt.Println()

	// Without a tower: Bob ends up with both assets. The paper calls
	// this outcome "technically correct" — Alice and Carol deviated by
	// failing to claim their assets in time.
	w := buildScenario()
	r := w.Run()
	fmt.Println("--- without a watchtower ---")
	fmt.Print(r.Summary())
	fmt.Printf("ticket owner: %s\n", r.FinalTokenOwners["ticketchain/ticket-escrow"]["seat-1A"])
	fmt.Printf("bob's coin delta: %+d\n", r.FungibleDelta["bob"]["coinchain/coin-escrow"])
	if len(r.SafetyViolations) == 0 {
		fmt.Println("(no Property 1 violation: the offline parties are the deviators)")
	}
	fmt.Println()

	// With a tower watching on Carol's behalf.
	w = buildScenario()
	tower := watchtower.New(watchtower.Config{
		Client:     "carol",
		ClientKeys: w.Keys("carol"),
		Spec:       w.Spec,
		Chains:     w.Chains,
		Sched:      w.Sched,
	})
	tower.Start()
	r = w.Run()
	fmt.Println("--- with carol's watchtower ---")
	fmt.Print(r.Summary())
	fmt.Printf("ticket owner: %s\n", r.FinalTokenOwners["ticketchain/ticket-escrow"]["seat-1A"])
	fmt.Printf("tower forwarded %d vote(s), poked %d refund(s)\n", tower.Forwards, tower.Pokes)
}
