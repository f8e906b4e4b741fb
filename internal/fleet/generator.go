package fleet

import (
	"fmt"

	"xdeal/internal/arena"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/feemarket"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

// Scenario shapes the generator draws from.
const (
	ShapeRing    = "ring"
	ShapeBroker  = "broker"
	ShapeAuction = "auction"
	ShapeDense   = "dense"
	ShapeRandom  = "random"
)

// GenOptions configures scenario synthesis.
type GenOptions struct {
	// Seed is the master seed: it fully determines every generated
	// scenario, independent of worker count or execution order.
	Seed uint64
	// Protocol is "timelock", "cbc", or "mixed" (per-deal coin flip).
	Protocol string
	// AdversaryRate is the probability that each party deviates.
	AdversaryRate float64
	// DoSRate is the probability that a run includes a chain outage
	// window (plus, for CBC runs, an occasional CBC outage).
	DoSRate float64
	// MaxParties caps ring/dense/random deal sizes; minimum 3,
	// default 6. Rings still start at 2 parties (the swap case).
	MaxParties int
	// SerializeRounds runs every generated world with the strict
	// escrow → transfer → validate → vote round gating (the
	// pre-pipelining party drivers). The flag consumes no randomness,
	// so a serialized population's deals are exact seed twins of the
	// pipelined default — same shapes, same adversaries, same outages.
	SerializeRounds bool
	// Fees, when non-nil, enables fee markets across the sweep: every
	// world's chains gain tip-ordered blocks with an EIP-1559 base fee,
	// isolated worlds get a block-capacity cap so ordering matters, and
	// the adversary catalog gains a fee-bidding front-runner. The flag
	// path consumes randomness only for the extra catalog entry, so a
	// fee-market population's deals keep their FIFO twins' shapes.
	Fees *FeeOptions
}

// Job is one fully specified deal execution: a spec plus engine options,
// reproducible from (master seed, index) alone.
type Job struct {
	Index       int
	Seed        uint64 // derived job seed; replay with Generator.Job(Index)
	Shape       string
	Spec        *deal.Spec
	Opts        engine.Options
	Adversaries int
	Outage      bool
	// Sequenceable marks shapes whose tentative-transfer flow is
	// constructed to be executable (rings, broker chains, auctions,
	// dense matrices). ShapeRandom digraphs can carry circular funding
	// dependencies on a single escrow, where a deal deadlocks in the
	// transfer phase and aborts safely — a legitimate outcome, so
	// Property 3 (strong liveness) is only asserted when Sequenceable.
	Sequenceable bool

	// races meters the run's front-run and fee-bid outcomes (fee-market
	// sweeps only); the job's adaptive hooks write it during the run.
	races *raceTally
}

// raceTally accumulates one run's race outcomes.
type raceTally struct {
	races, raceWins int
	bids, bidWins   int
}

// Generator synthesizes randomized deal scenarios deterministically.
type Generator struct {
	opts GenOptions
}

// NewGenerator validates options and returns a generator.
func NewGenerator(opts GenOptions) (*Generator, error) {
	switch opts.Protocol {
	case "", "mixed", "timelock", "cbc":
	default:
		return nil, fmt.Errorf("fleet: unknown protocol %q (want timelock, cbc, or mixed)", opts.Protocol)
	}
	if opts.Protocol == "" {
		opts.Protocol = "mixed"
	}
	// Each bound is written so that NaN fails it too.
	if !(opts.AdversaryRate >= 0 && opts.AdversaryRate <= 1) {
		return nil, fmt.Errorf("fleet: adversary rate %v outside [0, 1]", opts.AdversaryRate)
	}
	if !(opts.DoSRate >= 0 && opts.DoSRate <= 1) {
		return nil, fmt.Errorf("fleet: DoS rate %v outside [0, 1]", opts.DoSRate)
	}
	if opts.MaxParties <= 0 {
		opts.MaxParties = 6
	}
	if opts.MaxParties < 3 {
		opts.MaxParties = 3
	}
	if opts.Fees != nil {
		f := *opts.Fees // normalize a private copy
		f.defaults()
		opts.Fees = &f
	}
	return &Generator{opts: opts}, nil
}

// jobSeed derives the seed of job i via the shared SplitMix64 finalizer.
func (g *Generator) jobSeed(i int) uint64 {
	return sim.Mix64(g.opts.Seed ^ sim.Mix64(uint64(i)+0x9e3779b97f4a7c15))
}

// Job synthesizes scenario i. The same (master seed, i) always yields
// the identical job.
func (g *Generator) Job(i int) Job {
	seed := g.jobSeed(i)
	rng := sim.NewRNG(seed)
	job := Job{Index: i, Seed: seed}

	const delta = sim.Duration(1000)
	job.Shape = g.pickShape(rng)
	job.Spec = g.buildSpec(job.Shape, rng, delta)
	job.Sequenceable = job.Shape != ShapeRandom

	proto := g.opts.Protocol
	if proto == "mixed" {
		proto = "timelock"
		if rng.Bool(0.5) {
			proto = "cbc"
		}
	}
	opts := engine.Options{Seed: rng.Uint64(), SerializeRounds: g.opts.SerializeRounds}
	if proto == "cbc" {
		opts.Protocol = party.ProtoCBC
		opts.F = 1 + rng.Intn(3)
		opts.Patience = 30000 + sim.Duration(rng.Intn(3))*10000
		if rng.Bool(0.25) {
			opts.ProofFormat = party.ProofBlocks
		}
	} else {
		opts.Protocol = party.ProtoTimelock
	}

	// Network model: synchronous with hop delays well under Δ, so the
	// timelock safety assumption (message delay ≤ Δ) always holds.
	switch rng.Intn(3) {
	case 0: // engine default, SyncPolicy{1, 5}
	case 1:
		opts.World.Delays = chain.SyncPolicy{Min: 1, Max: 1 + sim.Duration(rng.Intn(50))}
	case 2:
		opts.World.Delays = chain.SyncPolicy{Min: delta / 20, Max: delta/20 + sim.Duration(rng.Intn(int(delta)/5))}
	}

	// Fee market: tip-ordered capped blocks, so queue position is won by
	// bidding rather than arrival; the job meters its races for the
	// ordering-games report.
	if f := g.opts.Fees; f != nil {
		opts.World.FeeMarket = &feemarket.Config{Initial: f.BaseFee}
		opts.World.MaxBlockTxs = arena.DefaultMaxBlockTxs
		tally := &raceTally{}
		job.races = tally
		opts.Adaptive = &party.AdaptiveHooks{
			OnFrontRun: func(_ chain.Addr, _ string, bid uint64, won bool) {
				if bid > 0 {
					tally.bids++
					if won {
						tally.bidWins++
					}
					return
				}
				tally.races++
				if won {
					tally.raceWins++
				}
			},
		}
	}

	// Adversary mix.
	catalog := deviationCatalog(job.Spec, g.opts.Fees)
	opts.Behaviors = make(map[chain.Addr]party.Behavior)
	for _, p := range job.Spec.Parties {
		if rng.Bool(g.opts.AdversaryRate) {
			opts.Behaviors[p] = catalog[rng.Intn(len(catalog))]
			job.Adversaries++
		}
	}

	// DoS outage windows (§9 threat model layered on deviations).
	if rng.Bool(g.opts.DoSRate) {
		escrows := job.Spec.Escrows()
		victim := escrows[rng.Intn(len(escrows))].Chain
		from := sim.Time(rng.Intn(2000))
		opts.World.Outages = map[chain.ID]engine.Outage{
			victim: {From: from, Until: from + sim.Time(500+rng.Intn(6500))},
		}
		job.Outage = true
	}
	if proto == "cbc" && rng.Bool(g.opts.DoSRate/2) {
		from := sim.Time(rng.Intn(1000))
		opts.CBCOutage = engine.Outage{From: from, Until: from + sim.Time(1000+rng.Intn(6000))}
		job.Outage = true
	}

	job.Opts = opts
	return job
}

// Jobs synthesizes the first n scenarios.
func (g *Generator) Jobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = g.Job(i)
	}
	return jobs
}

// pickShape draws a scenario shape.
func (g *Generator) pickShape(rng *sim.RNG) string {
	switch p := rng.Float64(); {
	case p < 0.30:
		return ShapeRing
	case p < 0.50:
		return ShapeBroker
	case p < 0.60:
		return ShapeAuction
	case p < 0.80:
		return ShapeDense
	default:
		return ShapeRandom
	}
}

// buildSpec synthesizes a validated spec of the given shape. Every
// generated spec passes Validate, ValidateTimelock, and WellFormed.
func (g *Generator) buildSpec(shape string, rng *sim.RNG, delta sim.Duration) *deal.Spec {
	maxN := g.opts.MaxParties
	var spec *deal.Spec
	switch shape {
	case ShapeRing:
		n := 2 + rng.Intn(maxN-1) // 2..maxN: size 2 is the swap case
		spec = deal.RingSpec(n, sim.Time(3000+500*n), delta)
	case ShapeBroker:
		k := 1 + rng.Intn(min(3, maxN-2)) // 1..3 intermediaries
		base := uint64(50 + rng.Intn(100))
		commission := uint64(1 + rng.Intn(10))
		spec = deal.BrokerChainSpec(k, base, commission, sim.Time(3000+500*k), delta)
	case ShapeAuction:
		lose := uint64(40 + rng.Intn(60))
		win := lose + uint64(10+rng.Intn(100))
		spec = deal.AuctionSpec(3000, delta, win, lose)
	case ShapeDense:
		n := 3 + rng.Intn(maxN-2)
		m := 2 + rng.Intn(3)
		spec = deal.DenseSpec(n, m, sim.Time(3000+500*n), delta)
	default: // ShapeRandom
		for {
			n := 3 + rng.Intn(maxN-2)
			chains := 1 + rng.Intn(3)
			extra := rng.Intn(4)
			spec = deal.RandomSpec(rng, n, chains, extra, sim.Time(3000+500*n), delta)
			if spec.Validate() == nil {
				break
			}
			// RandomSpec can emit zero-value extra arcs; redraw.
		}
	}
	// Distinct IDs keep per-run records distinguishable in reports.
	spec.ID = fmt.Sprintf("%s/%s", spec.ID, shape)
	return spec
}

// deviationCatalog lists the disruptive behaviors the generator
// samples, time-scaled to the spec's timelock window. All but two report
// Compliant() == false, so adversarial parties never count toward the
// population's compliant-party property checks. The two keep every
// protocol duty and stay engine-compliant: a very late voter (path-
// scaled timeouts tolerate it) and the fee-bidding front-runner. Either
// can still abort or slow a deal, so their runs are likewise excluded
// from the strong-liveness (Property 3) slice via the Adversaries count.
func deviationCatalog(spec *deal.Spec, fees *FeeOptions) []party.Behavior {
	t0, delta := spec.T0, spec.Delta
	catalog := []party.Behavior{
		{SkipEscrow: true},
		{SkipTransfers: true},
		{SkipVoting: true},
		{NoForwarding: true},
		{CrashAt: sim.Time(700)},
		{CrashAt: t0 - sim.Time(delta)/2},
		{VoteDelay: sim.Duration(t0) + 10*delta},
		{OfflineFrom: t0 - 1100, OfflineUntil: t0 + sim.Time(4*delta)},
		{AbortImmediately: true},
		{CommitThenAbort: 5},
		{CorruptInfo: true},
		{EscrowShortfall: 3},
	}
	if fees != nil {
		// Fee-market sweeps add the ordering-game adversary: a
		// front-runner that outbids the transactions it races.
		catalog = append(catalog, party.Behavior{
			FrontRun: true, FeeBid: true, FeeBudget: fees.TipBudget,
		})
	}
	return catalog
}
