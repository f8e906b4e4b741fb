// Package arena runs a population of cross-chain deals inside one
// shared world: a single discrete-event scheduler, a small set of
// chains with shared mempools and capped block capacity, and token and
// escrow contracts that host many deals at once. Where the fleet
// studies deals in isolation, the arena studies *interference*: how
// deals competing for block space inflate each other's decision
// latency, and what adaptive adversaries — sore losers reacting to a
// seeded market price process, front-runners watching mempool gossip,
// griefing depositors — cost their compliant counterparties.
//
// The arena preserves the fleet's reproducibility contract: a run is a
// pure function of (master seed, options). The shared simulation is
// single-threaded; per-deal isolated baselines (for the latency
// inflation metric) are the only concurrent work, and their results
// are folded back in deal order.
package arena

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"xdeal/internal/chain"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/feemarket"
	"xdeal/internal/hedge"
	"xdeal/internal/obs"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

// Defaults of the arena knobs that fleet and cmd/dealsweep also expose.
// They are written here once; WithDefaults and PopOptions resolve zero
// values to them, and the sweep flags reference them.
const (
	// DefaultVolatility is the market's per-tick fractional price move.
	DefaultVolatility = 0.02
	// DefaultMaxBlockTxs is the block capacity of the shared chains, and
	// of each isolated world in a fee-market sweep.
	DefaultMaxBlockTxs = 8
	// DefaultChains is the number of shared chains a population uses.
	DefaultChains = 4
	// DefaultTipBudget is each fee bidder's total tip spend cap.
	DefaultTipBudget = 400
	// DefaultBundleBudget is each bundle griefer's total per-slot bid
	// increment cap, in the tip-budget denomination.
	DefaultBundleBudget = 400
)

// Options configures the shared world, and the adversary-mix upgrades
// NewPopulation applies for it.
type Options struct {
	// Seed drives everything the population seed does not: chain network
	// delays and the market price process.
	Seed uint64
	// Protocol is "timelock" (default) or "cbc"; one arena runs one
	// protocol, because all deals at one escrow contract must agree on
	// the commit machinery.
	Protocol string
	// Volatility is the per-tick fractional price move of the market
	// (default DefaultVolatility); this is what arms sore losers.
	Volatility float64
	// PriceTick is the market step interval (default 100 ticks).
	PriceTick sim.Duration
	// MaxBlockTxs caps block capacity on the shared chains (default
	// DefaultMaxBlockTxs). Capacity is the contention mechanism: without
	// it, deals sharing a chain would never slow each other down.
	MaxBlockTxs int
	// Baselines re-runs each deal alone in an isolated world (same
	// seed, same adversaries, private market) to measure contention-
	// induced decision-latency inflation. Costs one extra run per deal.
	Baselines bool
	// FeeMarket attaches an EIP-1559-style fee market to the shared
	// chains: blocks include by priority tip instead of FIFO, compliant
	// parties escalate tips toward their timelock deadlines, and
	// front-running adversaries become fee bidders that outbid their
	// victims (see Options.TipBudget). The result gains a Fees summary.
	FeeMarket bool
	// BaseFee is the fee market's initial base fee (0 leaves
	// feemarket.DefaultBaseFee).
	BaseFee uint64
	// TipBudget caps each fee-bidding front-runner's total tip spend
	// (default DefaultTipBudget).
	TipBudget uint64
	// Bundles turns the ordering game deal-granular: every fee-market
	// chain runs a per-block combinatorial auction (see internal/bundle)
	// in which each deal's pending transactions compete as one
	// all-or-nothing bundle with an aggregate bid, compliant parties
	// escalate their deal's per-slot bid toward the timelock deadline,
	// and the front-runner slot of the adversary mix becomes a
	// bundle-griefing adversary that outbids victims' whole bundles
	// (see Options.BundleBudget). Requires FeeMarket.
	Bundles bool
	// BundleBudget caps each bundle griefer's total per-slot bid
	// increments (default DefaultBundleBudget).
	BundleBudget uint64
	// Hedge arms the sore-loser defense: every fungible escrow gains a
	// premium-priced insurance contract (see internal/hedge), and the
	// population's compliant mix slots hedge their deposits — refusing
	// to lock unhedged capital and claiming collateral payouts when a
	// deal aborts after the trigger. Premiums are priced off each
	// chain's realized base-fee volatility (and, under Bundles, the
	// deal's realized bundle-loss streak), so hedging couples to the
	// fee market's congestion signals.
	Hedge bool
	// HedgeCollateral is the bond size as a multiple of the insured
	// deposit (default hedge.DefaultCollateral).
	HedgeCollateral float64
	// PremiumVolWindow is the realized base-fee volatility window (in
	// sealed blocks) premiums are priced over (default
	// hedge.DefaultVolWindow).
	PremiumVolWindow int
	// Metrics, when non-nil, receives the arena's observability
	// registrations after the run: substrate counters (blocks sealed,
	// mempool high-water, fee and hedge ledgers) plus the interference
	// tallies. Collection is post-hoc and purely derived, so attaching
	// a registry never changes the simulation.
	Metrics *obs.Registry
}

// WithDefaults validates the options and resolves their zero values to
// the defaults. It is the one place the arena's defaults are resolved:
// Run and NewPopulation call it, and fleet echoes the budgets,
// collateral and window it resolves into its report.
func (o Options) WithDefaults() (Options, error) {
	switch o.Protocol {
	case "":
		o.Protocol = "timelock"
	case "timelock", "cbc":
	default:
		return o, fmt.Errorf("arena: unknown protocol %q (want timelock or cbc)", o.Protocol)
	}
	// The float bounds are written so that NaN and +Inf fail them too.
	if !(o.Volatility >= 0 && o.Volatility <= math.MaxFloat64) {
		return o, fmt.Errorf("arena: volatility %v is negative or not finite", o.Volatility)
	}
	if o.MaxBlockTxs < 0 {
		return o, fmt.Errorf("arena: negative block capacity %d", o.MaxBlockTxs)
	}
	if !(o.HedgeCollateral >= 0 && o.HedgeCollateral <= math.MaxFloat64) {
		return o, fmt.Errorf("arena: hedge collateral %v is negative or not finite", o.HedgeCollateral)
	}
	if o.PremiumVolWindow < 0 {
		return o, fmt.Errorf("arena: negative premium volatility window %d", o.PremiumVolWindow)
	}
	if o.Bundles && !o.FeeMarket {
		return o, fmt.Errorf("arena: bundles require the fee market (an aggregate bid needs a fee ledger)")
	}
	if o.Volatility == 0 {
		o.Volatility = DefaultVolatility
	}
	if o.PriceTick <= 0 {
		o.PriceTick = 100
	}
	if o.MaxBlockTxs == 0 {
		o.MaxBlockTxs = DefaultMaxBlockTxs
	}
	if o.TipBudget == 0 {
		o.TipBudget = DefaultTipBudget
	}
	if o.BundleBudget == 0 {
		o.BundleBudget = DefaultBundleBudget
	}
	if o.HedgeCollateral == 0 {
		o.HedgeCollateral = hedge.DefaultCollateral
	}
	if o.PremiumVolWindow == 0 {
		o.PremiumVolWindow = hedge.DefaultVolWindow
	}
	return o, nil
}

// world is the substrate configuration the arena's deals share; each
// isolated baseline gets its own copy.
func (o Options) world() engine.SubstrateConfig {
	cfg := engine.SubstrateConfig{MaxBlockTxs: o.MaxBlockTxs, Bundles: o.Bundles}
	if o.FeeMarket {
		cfg.FeeMarket = &feemarket.Config{Initial: o.BaseFee}
	}
	if o.Hedge {
		cfg.Hedge = &hedge.Params{Collateral: o.HedgeCollateral, VolWindow: o.PremiumVolWindow}
	}
	return cfg
}

// DealOutcome is one deal's result inside the arena, with the
// interference measurements attached.
type DealOutcome struct {
	DealSetup
	Result *engine.Result

	// SoreLosers counts sore-loser triggers among this deal's parties;
	// FrontRuns counts front-run races its parties ran.
	SoreLosers int
	FrontRuns  int

	// Stranded is the fungible capital the deal's compliant parties
	// actually had locked in escrows that did not commit — read from
	// the escrow books at the end of the run, so a deposit that never
	// landed is never counted (no leak, no double-count).
	Stranded uint64
	// Payouts is the collateral the deal's parties claimed from hedge
	// cover; zero without Options.Hedge.
	Payouts uint64
}

// Interference aggregates the arena's cross-deal contention metrics.
type Interference struct {
	// SoreLoserTriggers counts parties that backed out on a price move;
	// SoreLoserDeals counts deals that failed to commit after a trigger;
	// SoreLoserLoss totals the fungible value compliant counterparties
	// had locked in those deals — capital timelocked for nothing, the
	// cost the sore-loser attack imposes (Xue & Herlihy).
	SoreLoserTriggers int
	SoreLoserDeals    int
	SoreLoserLoss     uint64
	// FrontRunAttempts / FrontRunWins count mempool races run and won
	// (the racer's transaction executed before the one it reacted to)
	// by plain gossip racers; FeeBidAttempts / FeeBidWins count the
	// races of fee bidders, which outbid their victims' tips. Disjoint,
	// so the two strategies' win rates compare directly.
	FrontRunAttempts int
	FrontRunWins     int
	FeeBidAttempts   int
	FeeBidWins       int
	// Hedging defense metrics (all zero without Options.Hedge):
	// positions bound and settled, premium and payout flows, and the
	// residual sore-loser loss — SoreLoserLoss minus the payouts that
	// compensated it, floored at zero per deal. A working defense shows
	// residual shrinking toward zero while gross loss stays put.
	HedgeBinds            int
	HedgeSettles          int
	PremiumsPaid          uint64
	PremiumsRefunded      uint64
	PayoutsClaimed        uint64
	ResidualSoreLoserLoss uint64
	// Combinatorial bundle-auction metrics (all zero without
	// Options.Bundles): auctions run across the shared chains, bundle
	// participations won and deferred, bundle-griefing raises
	// (attempts) and the auctions in which a targeted victim's bundle
	// was deferred while the griefer's won (successes). A raise is a
	// standing bid, so one attempt can land exclusions in many
	// consecutive blocks — successes may exceed attempts.
	BundleAuctions     int
	BundleWins         int
	BundleDefers       int
	ExclusionAttempts  int
	ExclusionSuccesses int
	// VictimExclusionBlocks counts blocks — in any fee-market arena,
	// bundled or not — where an adversarial deal's work was included
	// while a rival deal's arrived work (any deal other than the
	// included adversaries themselves) was deferred past capacity. It
	// is the uniform exclusion metric that makes tx-level fee bidding
	// and bundle-level griefing comparable seed for seed.
	VictimExclusionBlocks int
	// InflationSamples holds per-deal arena/baseline decision-latency
	// ratios (present only when baselines ran).
	InflationSamples []float64
	// BundleSamples holds one observation per winning bundle: the
	// per-slot bid it won at and its deadline slack at inclusion — the
	// raw material for the slack-by-bid-decile report.
	BundleSamples []BundleSample
	// HedgeSamples holds one observation per bound position: the
	// premium and collateral, and the realized base-fee volatility (in
	// basis points) it was priced at — the raw material for the
	// premium-by-volatility-decile report.
	HedgeSamples []HedgeSample
}

// Race tallies one front-run race a party ran: a fee bidder's when it
// bid a tip, a plain gossip racer's otherwise.
func (i *Interference) Race(bid uint64, won bool) {
	if bid > 0 {
		i.FeeBidAttempts++
		if won {
			i.FeeBidWins++
		}
		return
	}
	i.FrontRunAttempts++
	if won {
		i.FrontRunWins++
	}
}

// HedgeSample is one bound hedge position's pricing observation.
type HedgeSample struct {
	VolBps     int // realized base-fee volatility at bind, basis points
	Premium    uint64
	Collateral uint64
	Streak     int // realized bundle-loss streak at bind (0 without bundles)
}

// BundleSample is one winning bundle's deadline-slack observation.
type BundleSample struct {
	// PerSlot is the per-slot bid the bundle won at.
	PerSlot uint64
	// SlackMilli is the bundle's deadline slack at inclusion, in
	// thousandths of the owning deal's Δ (negative when the block that
	// finally included it ran past the timelock horizon).
	SlackMilli int64
}

// Result is the evaluated outcome of one arena run.
type Result struct {
	Outcomes     []DealOutcome
	Interference Interference
	// Fees summarizes the shared chains' fee-market activity (burn/tip
	// totals and per-transaction tip/queuing-delay samples); nil when
	// the fee market is off.
	Fees *engine.FeeSummary
}

// Run executes the population inside one shared world. The run is
// deterministic: the same (opts, pop) always produces the identical
// result, bit for bit.
func Run(opts Options, pop []DealSetup) (*Result, error) {
	opts, err := opts.WithDefaults()
	if err != nil {
		return nil, err
	}
	res := &Result{Outcomes: make([]DealOutcome, len(pop))}
	if len(pop) == 0 {
		return res, nil
	}

	sub := engine.NewSubstrate(opts.Seed, opts.world())
	market := NewMarket(sub.Sched, sim.Mix64(opts.Seed^0xa5a5a5a5), opts.PriceTick, opts.Volatility)

	// Party -> deal index, for routing adaptive-trigger callbacks, and
	// deal id -> index, for attributing auction and block records.
	owner := make(map[chain.Addr]int)
	dealIdx := make(map[string]int, len(pop))
	for k, setup := range pop {
		for _, p := range setup.Spec.Parties {
			owner[p] = k
		}
		dealIdx[setup.Spec.ID] = k
	}
	// Bundle-griefing attempts, per chain: griefer deal id -> victim
	// deal ids it has bid against there so far. Auction records are
	// matched against the hosting chain's map to count landed
	// exclusions — a raise on one chain must not claim credit for
	// congestion losses on another.
	griefTargets := make(map[chain.ID]map[string]map[string]bool)
	hooks := &party.AdaptiveHooks{
		Oracle: market,
		OnSoreLoser: func(p chain.Addr, tok chain.Addr, drift float64) {
			res.Outcomes[owner[p]].SoreLosers++
			res.Interference.SoreLoserTriggers++
		},
		OnFrontRun: func(p chain.Addr, method string, bid uint64, won bool) {
			res.Outcomes[owner[p]].FrontRuns++
			res.Interference.Race(bid, won)
		},
		OnBundleGrief: func(p chain.Addr, ch chain.ID, victimDeal string, _ uint64) {
			g := pop[owner[p]].Spec.ID
			byGriefer := griefTargets[ch]
			if byGriefer == nil {
				byGriefer = make(map[string]map[string]bool)
				griefTargets[ch] = byGriefer
			}
			m := byGriefer[g]
			if m == nil {
				m = make(map[string]bool)
				byGriefer[g] = m
			}
			m[victimDeal] = true
			res.Interference.ExclusionAttempts++
		},
		OnHedgeBound: func(p chain.Addr, collateral, premium uint64, vol float64, streak int) {
			res.Interference.HedgeBinds++
			res.Interference.PremiumsPaid += premium
			res.Interference.HedgeSamples = append(res.Interference.HedgeSamples, HedgeSample{
				VolBps:     int(vol*10000 + 0.5),
				Premium:    premium,
				Collateral: collateral,
				Streak:     streak,
			})
		},
		OnHedgeSettled: func(p chain.Addr, payout bool, amount uint64) {
			res.Interference.HedgeSettles++
			if payout {
				res.Outcomes[owner[p]].Payouts += amount
				res.Interference.PayoutsClaimed += amount
				return
			}
			res.Interference.PremiumsRefunded += amount
		},
	}

	// Build every deal onto the substrate. Specs are copied so the
	// arena can rebase T0 onto the shared clock without mutating the
	// population (which the baseline runs still need pristine).
	worlds := make([]*engine.World, len(pop))
	leads := make([]sim.Time, len(pop))
	for k, setup := range pop {
		res.Outcomes[k].DealSetup = setup
		leads[k] = setup.Spec.T0
		spec := *setup.Spec
		w, err := sub.BuildOn(&spec, engineOptions(opts, setup, hooks))
		if err != nil {
			return nil, fmt.Errorf("arena: deal %d (%s): %w", k, setup.Spec.ID, err)
		}
		worlds[k] = w
	}

	// Exclusion and auction instrumentation on the shared chains. The
	// label of every transaction is "dealID/phase", so a block
	// summary's included/deferred labels map straight back to deals;
	// a victim-exclusion block is one where an adversarial deal's work
	// was included while a rival deal's arrived work was deferred —
	// computed identically whether the ordering game runs at
	// transaction or bundle granularity.
	if opts.FeeMarket {
		dealOf := func(label string) (int, bool) {
			i := strings.LastIndex(label, "/")
			if i < 0 {
				return 0, false
			}
			k, ok := dealIdx[label[:i]]
			return k, ok
		}
		ids := make([]string, 0, len(sub.Chains))
		for id := range sub.Chains {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		for _, id := range ids {
			c := sub.Chains[chain.ID(id)]
			c.SubscribeBlocks(func(bs *chain.BlockSummary) {
				advIncluded := make(map[int]bool)
				for _, l := range bs.Included {
					if k, ok := dealOf(l); ok && pop[k].Adversaries > 0 {
						advIncluded[k] = true
					}
				}
				if len(advIncluded) == 0 {
					return
				}
				for _, l := range bs.Deferred {
					// A victim is any rival deal displaced by the
					// included adversaries — not the adversaries'
					// own deals, whose work made it in.
					if k, ok := dealOf(l); ok && !advIncluded[k] {
						res.Interference.VictimExclusionBlocks++
						return
					}
				}
			})
			if !opts.Bundles {
				continue
			}
			c.SubscribeAuctions(func(rec *chain.AuctionRecord) {
				res.Interference.BundleAuctions++
				for _, w := range rec.Winners {
					k, ok := dealIdx[w.Deal]
					if !ok {
						continue
					}
					res.Interference.BundleWins++
					if w.Deadline > 0 {
						slack := (int64(w.Deadline) - int64(rec.Time)) * 1000 /
							int64(pop[k].Spec.Delta)
						res.Interference.BundleSamples = append(res.Interference.BundleSamples,
							BundleSample{PerSlot: w.PerSlot, SlackMilli: slack})
					}
				}
				for _, d := range rec.Deferred {
					if _, ok := dealIdx[d.Deal]; !ok {
						continue
					}
					res.Interference.BundleDefers++
					for _, w := range rec.Winners {
						if w.Deal != d.Deal && griefTargets[rec.Chain][w.Deal][d.Deal] {
							res.Interference.ExclusionSuccesses++
							break
						}
					}
				}
			})
		}
	}

	// Stagger the starts across the arena and rebase each deal's
	// timelock clock onto the shared one: T0 stays the same lead ahead
	// of the deal's start that the generator chose.
	base := sub.Sched.Now()
	for k, w := range worlds {
		w := w
		startAt := base + sim.Time(pop[k].StartOffset)
		w.Spec.T0 = startAt + leads[k]
		sub.Sched.At(startAt, w.Start)
	}
	sub.Sched.Run()

	for k, w := range worlds {
		out := &res.Outcomes[k]
		out.Result = w.Evaluate()
	}
	if opts.FeeMarket {
		res.Fees = engine.CollectFees(sub.Chains)
	}

	if opts.Baselines {
		runBaselines(opts, pop, res)
	}

	// Sore-loser losses: in every deal where a trigger fired and the
	// commit consequently never happened, the compliant parties' locked
	// deposits were tied up only to be refunded. Stranded capital is
	// read from the escrow books themselves — what each compliant party
	// actually had deposited in escrows that did not commit — so the
	// attribution neither leaks (a deposit that never landed is not a
	// loss) nor double-counts (each book entry is summed exactly once).
	// Hedge payouts then absorb the loss: the residual is what the
	// attack still costs after the insurance compensates its victims.
	for k := range res.Outcomes {
		out := &res.Outcomes[k]
		if out.Result == nil {
			continue
		}
		out.Stranded = strandedDeposits(worlds[k], out.Result)
		if out.SoreLosers == 0 || out.Result.AllCommitted {
			continue
		}
		res.Interference.SoreLoserDeals++
		res.Interference.SoreLoserLoss += out.Stranded
		residual := out.Stranded
		if out.Payouts >= residual {
			residual = 0
		} else {
			residual -= out.Payouts
		}
		res.Interference.ResidualSoreLoserLoss += residual
	}
	registerMetrics(opts.Metrics, sub, res)
	return res, nil
}

// registerMetrics folds one finished arena into the registry: the
// shared substrate's chain/fee/hedge counters, then the interference
// tallies. Counter merges are commutative sums, so sweep-level
// snapshots are identical however arenas are distributed over workers.
func registerMetrics(reg *obs.Registry, sub *engine.Substrate, res *Result) {
	if reg == nil {
		return
	}
	sub.RegisterMetrics(reg)
	reg.Counter("arena.runs").Inc()
	reg.Counter("arena.deals").Add(uint64(len(res.Outcomes)))
	i := res.Interference
	reg.Counter("arena.sore_loser_triggers").Add(uint64(i.SoreLoserTriggers))
	reg.Counter("arena.sore_loser_deals").Add(uint64(i.SoreLoserDeals))
	reg.Counter("arena.sore_loser_loss").Add(i.SoreLoserLoss)
	reg.Counter("arena.front_run_attempts").Add(uint64(i.FrontRunAttempts))
	reg.Counter("arena.front_run_wins").Add(uint64(i.FrontRunWins))
	reg.Counter("arena.fee_bid_attempts").Add(uint64(i.FeeBidAttempts))
	reg.Counter("arena.fee_bid_wins").Add(uint64(i.FeeBidWins))
	reg.Counter("arena.bundle_auctions").Add(uint64(i.BundleAuctions))
	reg.Counter("arena.bundle_wins").Add(uint64(i.BundleWins))
	reg.Counter("arena.bundle_defers").Add(uint64(i.BundleDefers))
	reg.Counter("arena.exclusion_attempts").Add(uint64(i.ExclusionAttempts))
	reg.Counter("arena.exclusion_successes").Add(uint64(i.ExclusionSuccesses))
	reg.Counter("arena.victim_exclusion_blocks").Add(uint64(i.VictimExclusionBlocks))
}

// strandedDeposits sums the fungible deposits the deal's compliant
// parties had locked in escrows that did not commit — capital that was
// timelocked only to be handed back (or worse, is locked still).
func strandedDeposits(w *engine.World, r *engine.Result) uint64 {
	keys := make([]string, 0, len(w.Managers))
	for key := range w.Managers {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var total uint64
	for _, key := range keys {
		st := w.Managers[key].Deal(w.Spec.ID)
		if st == nil || st.Status == escrow.StatusCommitted {
			continue
		}
		for _, p := range w.Spec.Parties {
			if r.Compliant[p] {
				total += st.Deposited[p]
			}
		}
	}
	return total
}

// engineOptions assembles one deal's engine options for the shared
// world. World settings (block capacity, fee market, hedging, bundles)
// are the substrate's, from Options.world.
func engineOptions(opts Options, setup DealSetup, hooks *party.AdaptiveHooks) engine.Options {
	eo := engine.Options{
		Seed:        setup.Seed,
		Behaviors:   setup.Behaviors,
		LabelPrefix: setup.Spec.ID + "/",
		Adaptive:    hooks,
	}
	if opts.Protocol == "cbc" {
		eo.Protocol = party.ProtoCBC
		eo.F = 1
		eo.Patience = 30 * setup.Spec.Delta
	} else {
		eo.Protocol = party.ProtoTimelock
	}
	return eo
}

// runBaselines executes each deal alone — same seed, same adversaries,
// a private market with the same process parameters — and fills in the
// latency-inflation metrics. Serial on purpose: arena runs are the unit
// of parallelism (the fleet spreads arenas across its worker pool).
func runBaselines(opts Options, pop []DealSetup, res *Result) {
	for k, setup := range pop {
		shared := res.Outcomes[k].Result.Phases
		sub := engine.NewSubstrate(setup.Seed, opts.world())
		market := NewMarket(sub.Sched, sim.Mix64(opts.Seed^0xa5a5a5a5), opts.PriceTick, opts.Volatility)
		hooks := &party.AdaptiveHooks{Oracle: market}
		w, err := sub.BuildOn(setup.Spec, engineOptions(opts, setup, hooks))
		if err != nil {
			continue // recorded in the arena pass already if structural
		}
		r := w.Run()
		alone := r.Phases.InDelta(r.Phases.DecisionEnd, setup.Spec.Delta)
		inArena := shared.InDelta(shared.DecisionEnd, setup.Spec.Delta)
		if alone > 0 && inArena > 0 {
			res.Interference.InflationSamples = append(res.Interference.InflationSamples, inArena/alone)
		}
	}
}
