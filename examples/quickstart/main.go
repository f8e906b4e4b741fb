// Quickstart: the paper's running example (§1.1).
//
// Alice is a ticket broker. Bob sells two coveted theater tickets for 100
// coins; Carol will pay 101. Alice brokers the deal, entering with no
// assets at all — her outgoing transfers are funded by her incoming ones,
// which is exactly what atomic swaps cannot express and deals can.
//
// The example runs the same deal under both commit protocols and shows
// what happens when Bob tries to walk away with the coins.
package main

import (
	"fmt"
	"log"

	"xdeal"
)

func main() {
	fmt.Println("=== Cross-chain deals quickstart ===")
	fmt.Println()

	// The deal of Figure 1: rows are outgoing transfers, columns incoming.
	spec := xdeal.BrokerDeal(2000, 1000)
	fmt.Println(spec.Matrix())
	fmt.Printf("well-formed (strongly connected digraph): %v\n\n", spec.WellFormed())

	// Timelock protocol (§5): fully decentralized, synchronous model.
	r, err := xdeal.Run(spec, xdeal.Options{Seed: 1, Protocol: xdeal.Timelock})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- timelock protocol ---")
	fmt.Print(r.Summary())
	fmt.Printf("ticket owner: %s\n\n", r.FinalTokenOwners["ticketchain/ticket-escrow"]["seat-1A"])

	// CBC protocol (§6): eventually synchronous, shared certified log.
	spec = xdeal.BrokerDeal(2000, 1000)
	r, err = xdeal.Run(spec, xdeal.Options{Seed: 1, Protocol: xdeal.CBC, F: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- CBC protocol ---")
	fmt.Print(r.Summary())
	fmt.Println()

	// Now Bob cheats: he escrows his tickets but never votes, hoping the
	// coins move anyway. Safety (Property 1) protects Alice and Carol:
	// the deal aborts everywhere and every compliant party is refunded.
	spec = xdeal.BrokerDeal(2000, 1000)
	r, err = xdeal.Run(spec, xdeal.Options{
		Seed:     1,
		Protocol: xdeal.Timelock,
		Behaviors: map[xdeal.Addr]xdeal.Behavior{
			"bob": {xdeal.SkipVoting{}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- bob refuses to vote ---")
	fmt.Print(r.Summary())
	if len(r.SafetyViolations) == 0 {
		fmt.Println("no compliant party ended up worse off (Property 1 held)")
	}
}
