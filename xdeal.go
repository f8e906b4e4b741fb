// Package xdeal is a from-scratch Go reproduction of "Cross-chain Deals
// and Adversarial Commerce" (Herlihy, Liskov, Shrira — VLDB 2019): a
// library for executing atomic cross-chain deals among mutually
// distrusting parties over independent simulated blockchains.
//
// A deal is specified as a matrix of asset transfers (Spec). Two commit
// protocols are provided:
//
//   - the timelock protocol (§5): fully decentralized, synchronous model,
//     unanimous path-signed commit votes with timeouts t0 + |p|·Δ;
//   - the certified blockchain (CBC) protocol (§6): eventually
//     synchronous model, votes ordered on a shared BFT-certified log,
//     escrow contracts settle against validator-signed proofs.
//
// Quick start:
//
//	spec := xdeal.BrokerDeal(2000, 1000) // Alice brokers Bob's tickets to Carol
//	result, err := xdeal.Run(spec, xdeal.Options{Seed: 1, Protocol: xdeal.Timelock})
//	fmt.Print(result.Summary())
//
// The package re-exports the library's stable surface; the implementation
// lives under internal/ (chain and consensus simulators, escrow and
// protocol contracts, the party runtime, and the experiment harness that
// regenerates the paper's tables — see cmd/benchtab).
package xdeal

import (
	"io"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/hedge"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

// Core specification types.
type (
	// Spec is a deal specification: parties, transfers, timelock params.
	Spec = deal.Spec
	// Transfer is one arc of the deal matrix.
	Transfer = deal.Transfer
	// AssetRef names an asset and its managing contracts.
	AssetRef = deal.AssetRef
	// Addr identifies a party or contract.
	Addr = chain.Addr
	// Time is simulated time in ticks.
	Time = sim.Time
	// Duration is a span of simulated time.
	Duration = sim.Duration
)

// Asset kinds.
const (
	Fungible    = deal.Fungible
	NonFungible = deal.NonFungible
)

// Execution types.
type (
	// Options configures a run: protocol, seed, deviations, network model.
	Options = engine.Options
	// Result is the evaluated outcome: settlements, violations, gas, time.
	Result = engine.Result
	// World is a fully wired simulation, for callers that need to attach
	// watchtowers or observers before running.
	World = engine.World
	// Behavior configures a party's deviations from the protocol.
	Behavior = party.Behavior
	// Protocol selects the commit protocol.
	Protocol = party.Protocol
)

// Protocols.
const (
	// Timelock is the fully decentralized synchronous-model protocol (§5).
	Timelock = party.ProtoTimelock
	// CBC is the certified-blockchain eventually-synchronous protocol (§6).
	CBC = party.ProtoCBC
)

// Build constructs the simulated multi-chain world for a deal without
// running it, so callers can attach observers or watchtowers first.
func Build(spec *Spec, opts Options) (*World, error) {
	return engine.Build(spec, opts)
}

// Run builds and executes a deal, returning the evaluated result.
func Run(spec *Spec, opts Options) (*Result, error) {
	w, err := engine.Build(spec, opts)
	if err != nil {
		return nil, err
	}
	return w.Run(), nil
}

// BrokerDeal returns the paper's running example (§1.1, Figure 1): Alice
// brokers Bob's theater tickets to Carol for a one-coin commission.
func BrokerDeal(t0 Time, delta Duration) *Spec {
	return deal.BrokerSpec(t0, delta)
}

// RingDeal returns an n-party circular deal spanning n chains.
func RingDeal(n int, t0 Time, delta Duration) *Spec {
	return deal.RingSpec(n, t0, delta)
}

// SwapDeal returns the classic two-party cross-chain swap (§8).
func SwapDeal(t0 Time, delta Duration) *Spec {
	return deal.SwapSpec(t0, delta)
}

// AuctionDeal returns the §9 auction settlement deal.
func AuctionDeal(t0 Time, delta Duration, winBid, loseBid uint64) *Spec {
	return deal.AuctionSpec(t0, delta, winBid, loseBid)
}

// DenseDeal returns an n-party deal over m escrow contracts, for cost
// experiments.
func DenseDeal(n, m int, t0 Time, delta Duration) *Spec {
	return deal.DenseSpec(n, m, t0, delta)
}

// Fleet types: concurrent randomized populations of deals (see
// cmd/dealsweep for the CLI route).
type (
	// SweepOptions configures a randomized fleet sweep: population
	// size, worker pool bound, the scenario generator, and (optionally)
	// arena mode.
	SweepOptions = fleet.Options
	// GenOptions configures scenario synthesis: master seed, protocol
	// mix, adversary rate, DoS rate, deal size cap.
	GenOptions = fleet.GenOptions
	// ArenaOptions switches a sweep to arena mode: deals run in shared
	// worlds — contending for the same chains, mempools, and block
	// capacity against adaptive adversaries (sore losers, mempool
	// front-runners, griefing depositors) — instead of isolated ones,
	// and the report gains cross-deal interference metrics.
	ArenaOptions = fleet.ArenaOptions
	// SweepReport aggregates a sweep: commit/abort rates by slice, gas
	// and Δ-time percentiles, flagged property violations, and (in
	// arena mode) interference metrics.
	SweepReport = fleet.Report
	// FeeOptions enables fee markets across a sweep (GenOptions.Fees):
	// EIP-1559-style chains with tip-ordered blocks, deadline-escalating
	// compliant tips, and budget-capped fee-bidding front-runners. The
	// report gains an OrderingGames block (fees burned/tipped, fee per
	// committed deal, plain vs fee-bid race win rates, inclusion delay
	// by tip decile).
	FeeOptions = fleet.FeeOptions
	// OrderingGames is the fee-market block of a sweep report.
	OrderingGames = fleet.OrderingGames
	// HedgeParams configures the sore-loser defense (Options.World.Hedge
	// and ArenaOptions.Hedge): premium-priced deposit insurance in the
	// spirit of Xue & Herlihy, layered on the escrow managers, with
	// premiums priced off each chain's realized base-fee volatility.
	HedgeParams = hedge.Params
	// Hedging is the sore-loser-defense block of a hedged sweep report:
	// premiums paid and refunded, payouts claimed, gross vs residual
	// sore-loser loss, and premium cost by base-fee-volatility decile.
	Hedging = fleet.Hedging
	// BundleAuctions is the combinatorial block-space auction block of
	// a bundled sweep report (ArenaOptions.Bundles): bundle win/defer
	// rates, bundle-griefing exclusion attempts and successes, and
	// deadline slack by per-slot-bid decile.
	BundleAuctions = fleet.BundleAuctions
)

// Sweep synthesizes a randomized population of deals from the master
// seed, executes it across a bounded worker pool (each deal world is an
// isolated single-threaded simulation), and aggregates population
// statistics. The report depends only on the generator options — never
// on the worker count — so sweeps are reproducible and every flagged
// violation is replayable from its seed.
func Sweep(opts SweepOptions) (*SweepReport, error) { return fleet.Sweep(opts) }

// ReadSpec decodes and validates a JSON deal specification, so deals can
// be authored as files (a dealsweep scenario's Deal.Spec carries one
// inline for the CLI route).
func ReadSpec(r io.Reader) (*Spec, error) { return deal.ReadSpec(r) }

// WriteSpec encodes a deal specification as indented JSON.
func WriteSpec(w io.Writer, s *Spec) error { return deal.WriteSpec(w, s) }
