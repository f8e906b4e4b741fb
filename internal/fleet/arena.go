package fleet

import (
	"fmt"

	"xdeal/internal/arena"
	"xdeal/internal/obs"
	"xdeal/internal/sim"
)

// ArenaOptions configures arena-mode sweeps: the population is split
// into shared worlds of DealsPerArena deals each, every arena runs as
// one single-threaded simulation, and arenas parallelize across the
// worker pool. The aggregate report gains Interference metrics.
type ArenaOptions struct {
	// DealsPerArena is the number of deals sharing one world; defaults
	// to 25. Bigger arenas mean more contention per chain.
	DealsPerArena int
	// Chains is the number of shared chains per arena; defaults to
	// arena.DefaultChains.
	Chains int
	// Volatility, MaxBlockTxs, Bundles, BundleBudget, Hedge,
	// HedgeCollateral and PremiumVolWindow are the arena.Options fields
	// of the same names: arena.Options documents them and resolves
	// their defaults.
	//
	// Volatility is the market's per-tick fractional price move; it
	// arms the sore-loser adversaries.
	Volatility float64
	// MaxBlockTxs caps per-block capacity on the shared chains — the
	// contention mechanism.
	MaxBlockTxs int
	// Baselines re-runs each deal alone to measure contention-induced
	// decision-latency inflation (one extra isolated run per deal).
	Baselines bool
	// Bundles turns every arena's ordering game deal-granular: the
	// shared chains run per-block combinatorial auctions over
	// all-or-nothing deal bundles (see internal/bundle), the
	// front-runner slot of the adversary mix griefs whole bundles
	// instead of fee-bidding single transactions, and the report gains
	// a BundleAuctions block (win/defer rates, exclusion attempts and
	// successes, deadline slack by bid decile). Requires the sweep's
	// fee market (GenOptions.Fees).
	Bundles bool
	// BundleBudget caps each bundle griefer's total per-slot bid
	// increments.
	BundleBudget uint64
	// Hedge arms the sore-loser defense across the sweep: compliant
	// mix slots insure their deposits at premium-priced hedging
	// contracts (see internal/hedge), and the report gains a Hedging
	// block (premiums, payouts, residual loss, premium by base-fee-
	// volatility decile).
	Hedge bool
	// HedgeCollateral is the bond size as a multiple of the insured
	// deposit.
	HedgeCollateral float64
	// PremiumVolWindow is the realized base-fee volatility window (in
	// sealed blocks) premiums are priced over.
	PremiumVolWindow int
}

// defaults resolves the two knobs fleet owns; arena.Options.WithDefaults
// validates and resolves the rest.
func (o *ArenaOptions) defaults() error {
	if o.DealsPerArena < 0 {
		return fmt.Errorf("fleet: negative deals-per-arena %d", o.DealsPerArena)
	}
	if o.Chains < 0 {
		return fmt.Errorf("fleet: negative chain count %d", o.Chains)
	}
	if o.DealsPerArena == 0 {
		o.DealsPerArena = 25
	}
	if o.Chains == 0 {
		o.Chains = arena.DefaultChains
	}
	return nil
}

// arenaProtocol maps the generator's protocol mix onto the arena's
// single-protocol worlds: all deals at one escrow contract must share
// commit machinery, so "mixed" alternates whole arenas between the two
// protocols instead of mixing within one.
func arenaProtocol(mix string, arenaIdx int) (string, error) {
	switch mix {
	case "timelock", "cbc":
		return mix, nil
	case "", "mixed":
		if arenaIdx%2 == 1 {
			return "cbc", nil
		}
		return "timelock", nil
	default:
		return "", fmt.Errorf("fleet: unknown protocol %q (want timelock, cbc, or mixed)", mix)
	}
}

// ArenaPopulation synthesizes the population of arena a: count deals
// sharing ao.Chains chains, with this generator's adversary rate and
// size cap. Pure in (generator options, a), so any flagged deal can be
// regenerated for replay from its printed index alone.
func (g *Generator) ArenaPopulation(a, count int, ao ArenaOptions) ([]arena.DealSetup, error) {
	if err := ao.defaults(); err != nil {
		return nil, err
	}
	world, err := arenaRunOptions(g.opts, ao, a)
	if err != nil {
		return nil, err
	}
	seed := sim.Mix64(g.opts.Seed ^ sim.Mix64(uint64(a)+0x51ed270b941a9e37))
	return arena.NewPopulation(seed, arena.PopOptions{
		Deals:         count,
		Chains:        ao.Chains,
		MaxParties:    g.opts.MaxParties,
		AdversaryRate: g.opts.AdversaryRate,
	}, world)
}

// arenaRunOptions maps a sweep's options onto the world of arena
// arenaIdx, which both synthesizes its population and runs it.
func arenaRunOptions(gen GenOptions, ao ArenaOptions, arenaIdx int) (arena.Options, error) {
	proto, err := arenaProtocol(gen.Protocol, arenaIdx)
	if err != nil {
		return arena.Options{}, err
	}
	o := arena.Options{
		Seed:             sim.Mix64(gen.Seed ^ sim.Mix64(uint64(arenaIdx)+0x7fb5d329728ea185)),
		Protocol:         proto,
		Volatility:       ao.Volatility,
		MaxBlockTxs:      ao.MaxBlockTxs,
		Baselines:        ao.Baselines,
		Bundles:          ao.Bundles,
		BundleBudget:     ao.BundleBudget,
		Hedge:            ao.Hedge,
		HedgeCollateral:  ao.HedgeCollateral,
		PremiumVolWindow: ao.PremiumVolWindow,
	}
	if f := gen.Fees; f != nil {
		o.FeeMarket = true
		o.BaseFee = f.BaseFee
		o.TipBudget = f.TipBudget
	}
	return o, nil
}

// runArena synthesizes and executes arena a of a totalDeals population.
// Both the sweep and the replay path go through here, so a flagged deal
// is guaranteed to replay inside the identical world. A non-nil metrics
// registry receives the arena's substrate and interference counters.
func runArena(gen *Generator, ao ArenaOptions, a, totalDeals int, metrics *obs.Registry) (*arena.Result, error) {
	count := ao.DealsPerArena
	if rest := totalDeals - a*ao.DealsPerArena; rest < count {
		count = rest
	}
	pop, err := gen.ArenaPopulation(a, count, ao)
	if err != nil {
		return nil, err
	}
	ropts, err := arenaRunOptions(gen.opts, ao, a)
	if err != nil {
		return nil, err
	}
	ropts.Metrics = metrics
	return arena.Run(ropts, pop)
}

// arenaWorlds readies agg for an arena sweep of deals deals under ao:
// it arms the blocks arena worlds report and returns the arena count
// and the task that runs one arena into a slot.
func arenaWorlds(gen *Generator, ao ArenaOptions, deals int, agg *Aggregator) (int, func(int, *world) error, error) {
	if err := ao.defaults(); err != nil {
		return 0, nil, err
	}
	// Every arena resolves the same defaults; arena 0's are the ones the
	// report echoes.
	opts, err := arenaRunOptions(gen.opts, ao, 0)
	if err != nil {
		return 0, nil, err
	}
	if opts, err = opts.WithDefaults(); err != nil {
		return 0, nil, err
	}
	if opts.Hedge {
		agg.EnableHedging(opts.HedgeCollateral, opts.PremiumVolWindow)
	}
	if opts.Bundles {
		agg.EnableBundles(opts.BundleBudget)
	}
	agg.inter = &Interference{Chains: ao.Chains}
	run := func(a int, w *world) error {
		res, err := runArena(gen, ao, a, deals, w.metrics)
		if err != nil {
			return err
		}
		w.arena, w.first = res, a*ao.DealsPerArena
		w.proto, _ = arenaProtocol(gen.opts.Protocol, a)
		w.fees, w.inter = res.Fees, res.Interference
		return nil
	}
	return (deals + ao.DealsPerArena - 1) / ao.DealsPerArena, run, nil
}

// ReplayArenaDeal re-runs the arena containing population index under
// the same options a sweep used and returns that deal's outcome. The
// arena is a pure function of (options, arena index), so the replay is
// bit-identical to the run that flagged the deal.
func ReplayArenaDeal(opts Options, index int) (*arena.DealOutcome, error) {
	if opts.Arena == nil {
		return nil, fmt.Errorf("fleet: ReplayArenaDeal without arena options")
	}
	ao := *opts.Arena
	if err := ao.defaults(); err != nil {
		return nil, err
	}
	if index < 0 || index >= opts.Deals {
		return nil, fmt.Errorf("fleet: deal index %d outside population [0, %d)", index, opts.Deals)
	}
	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		return nil, err
	}
	a := index / ao.DealsPerArena
	res, err := runArena(gen, ao, a, opts.Deals, nil)
	if err != nil {
		return nil, err
	}
	out := res.Outcomes[index-a*ao.DealsPerArena]
	return &out, nil
}

// arenaRecord converts one arena deal outcome into the fleet's
// aggregation currency. Index is population-global so a flagged deal
// maps straight back to (arena, deal) for replay.
func arenaRecord(globalIndex int, protocol string, out arena.DealOutcome) Record {
	return withResult(Record{
		Index:        globalIndex,
		Seed:         out.Seed,
		Shape:        out.Shape,
		Protocol:     protocol,
		Adversaries:  out.Adversaries,
		Sequenceable: out.Sequenceable,
	}, out.Result)
}
