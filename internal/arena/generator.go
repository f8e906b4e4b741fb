package arena

import (
	"fmt"
	"sort"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

// Scenario shapes the arena population draws from. Broker and auction
// shapes are omitted: they carry NFTs with fixed ids, and one
// non-fungible token cannot be escrowed by two deals at once — a
// contention mode worth studying separately, not as a default.
const (
	ShapeRing   = "ring"
	ShapeDense  = "dense"
	ShapeRandom = "random"
)

// PopOptions configures arena population synthesis.
type PopOptions struct {
	// Deals is the number of deals sharing the world.
	Deals int
	// Chains is the number of shared chains the deals' assets are
	// remapped onto; defaults to DefaultChains.
	Chains int
	// MaxParties caps per-deal size; defaults to 5, minimum 3.
	MaxParties int
	// AdversaryRate is the probability each party gets an adversarial
	// strategy — mostly adaptive (sore-loser, front-runner, griefer),
	// with some static deviations mixed in.
	AdversaryRate float64
	// StartGap staggers deal starts: deal k starts about k·StartGap
	// after the arena opens. Defaults to 50 ticks.
	StartGap sim.Duration
}

// DealSetup is one fully specified deal of an arena population. Spec.T0
// is *relative to the deal's own start*; the arena rebases it onto the
// shared clock when the deal is scheduled.
type DealSetup struct {
	Index        int
	Seed         uint64
	Shape        string
	Spec         *deal.Spec
	Behaviors    map[chain.Addr]party.Behavior
	Adversaries  int
	Sequenceable bool
	StartOffset  sim.Duration
}

func (o *PopOptions) defaults() error {
	if o.Deals < 0 {
		return fmt.Errorf("arena: negative deal count %d", o.Deals)
	}
	if o.AdversaryRate < 0 || o.AdversaryRate > 1 {
		return fmt.Errorf("arena: adversary rate %v outside [0, 1]", o.AdversaryRate)
	}
	if o.Chains <= 0 {
		o.Chains = DefaultChains
	}
	if o.MaxParties <= 0 {
		o.MaxParties = 5
	}
	if o.MaxParties < 3 {
		o.MaxParties = 3
	}
	if o.StartGap <= 0 {
		o.StartGap = 50
	}
	return nil
}

// NewPopulation synthesizes a population of deals sharing opts.Chains
// chains, for the world Run will host it in: world's FeeMarket, Bundles
// and Hedge upgrade the adversary mix, with its tip and bundle budgets.
// seed determines every random draw. The population is a pure function
// of the arguments, which is what makes flagged arena deals replayable
// from (seed, index) alone.
func NewPopulation(seed uint64, opts PopOptions, world Options) ([]DealSetup, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	world, err := world.WithDefaults()
	if err != nil {
		return nil, err
	}
	pop := make([]DealSetup, opts.Deals)
	for k := range pop {
		pop[k] = synthDeal(seed, opts, world, k)
	}
	return pop, nil
}

func synthDeal(popSeed uint64, opts PopOptions, world Options, k int) DealSetup {
	seed := sim.Mix64(popSeed ^ sim.Mix64(uint64(k)+0x9e3779b97f4a7c15))
	rng := sim.NewRNG(seed)
	setup := DealSetup{Index: k, Seed: seed}

	const delta = sim.Duration(1000)
	maxN := opts.MaxParties

	// Shape. Random digraphs can deadlock on circular single-escrow
	// funding (a safe abort), so only ring and dense deals assert
	// Property 3; see fleet.Job.Sequenceable.
	var base *deal.Spec
	switch p := rng.Float64(); {
	case p < 0.45:
		n := 2 + rng.Intn(maxN-1)
		base = deal.RingSpec(n, sim.Time(3000+500*n), delta)
		setup.Shape = ShapeRing
		setup.Sequenceable = true
	case p < 0.80:
		n := 3 + rng.Intn(maxN-2)
		m := 2 + rng.Intn(2)
		base = deal.DenseSpec(n, m, sim.Time(3000+500*n), delta)
		setup.Shape = ShapeDense
		setup.Sequenceable = true
	default:
		for {
			n := 3 + rng.Intn(maxN-2)
			chains := 1 + rng.Intn(3)
			extra := rng.Intn(4)
			base = deal.RandomSpec(rng, n, chains, extra, sim.Time(3000+500*n), delta)
			if base.Validate() == nil {
				break
			}
			// RandomSpec can emit zero-value extra arcs; redraw.
		}
		setup.Shape = ShapeRandom
	}

	// Congestion slack: shared mempools and capped blocks stretch every
	// phase, so the commit deadline gets extra headroom over the
	// isolated-world leads — otherwise queueing alone could push
	// compliant votes past t0 and read as liveness failures when it is
	// really the Δ assumption being violated by load.
	base.T0 += sim.Time(4 * delta)

	setup.Spec = remap(base, k, opts.Chains, rng)
	setup.Spec.ID += "/" + setup.Shape
	// Remapping several of a deal's assets onto one shared escrow can
	// create circular funding: obligations net per escrow (deposit =
	// max(0, out − in)), so a ring squeezed onto one contract needs
	// every incoming transfer before any outgoing one and deadlocks —
	// a safe abort, not a Property 3 case. Only assert strong liveness
	// when the funding dependencies stayed acyclic.
	setup.Sequenceable = setup.Sequenceable && acyclicFunding(setup.Spec)

	// Adversary mix: mostly adaptive strategies, some static deviations.
	// A compliant slot draws nothing: in a hedged world it hedges its
	// deposits (see party.Config.Hedge) and consumes no randomness, so a
	// hedged population is the seed twin of its unhedged run — the same
	// sore losers attack the same deals, and only the victims' cover
	// differs, which is what makes residual loss comparable seed for seed.
	for _, p := range setup.Spec.Parties {
		if !rng.Bool(opts.AdversaryRate) {
			continue
		}
		var b party.Behavior
		switch q := rng.Float64(); {
		case q < 0.40:
			b = party.Behavior{party.SoreLoser{Threshold: 0.02 + 0.10*rng.Float64()}}
		case q < 0.60:
			// The fee-market and bundle upgrades of this slot consume
			// no randomness, so the populations of a FIFO, a fee-market
			// and a bundled world are seed twins: the same parties race,
			// merely reacting, outbidding single transactions, or
			// griefing whole bundles. That is what makes the three
			// strategies' win and exclusion rates comparable seed for
			// seed.
			switch {
			case world.FeeMarket && world.Bundles:
				b = party.Behavior{party.FrontRun{}, party.BundleGrief{Budget: world.BundleBudget}}
			case world.FeeMarket:
				b = party.Behavior{party.FrontRun{Bid: &party.FeeBid{Budget: world.TipBudget}}}
			default:
				b = party.Behavior{party.FrontRun{}}
			}
		case q < 0.80:
			b = party.Behavior{party.Grief{}}
		case q < 0.90:
			b = party.Behavior{party.SkipVoting{}}
		default:
			b = party.Behavior{party.VoteDelay{By: base.T0 + 10*delta}}
		}
		if setup.Behaviors == nil {
			setup.Behaviors = make(map[chain.Addr]party.Behavior)
		}
		setup.Behaviors[p] = b
		setup.Adversaries++
	}

	setup.StartOffset = sim.Duration(k)*opts.StartGap + sim.Duration(rng.Intn(int(opts.StartGap)))
	return setup
}

// acyclicFunding reports whether the deal's tentative-transfer flow can
// be sequenced: transfer B waits on transfer A when both move assets at
// the same escrow contract and A delivers to B's sender (whose deposit
// may be netted away by that incoming leg). A cycle among such
// dependencies can leave every transfer unaffordable; a DAG always
// executes in topological order, because each party's deposit plus its
// received legs covers its outgoing ones by construction.
func acyclicFunding(s *deal.Spec) bool {
	n := len(s.Transfers)
	adj := make([][]int, n)
	for i, a := range s.Transfers {
		for j, b := range s.Transfers {
			if i != j && a.Asset.Key() == b.Asset.Key() && a.To == b.From {
				adj[i] = append(adj[i], j) // a funds b
			}
		}
	}
	const (
		unvisited = iota
		inStack
		done
	)
	state := make([]int, n)
	var visit func(int) bool
	visit = func(i int) bool {
		state[i] = inStack
		for _, j := range adj[i] {
			if state[j] == inStack {
				return false
			}
			if state[j] == unvisited && !visit(j) {
				return false
			}
		}
		state[i] = done
		return true
	}
	for i := 0; i < n; i++ {
		if state[i] == unvisited && !visit(i) {
			return false
		}
	}
	return true
}

// remap rewrites a base spec onto the arena's shared world: parties get
// deal-scoped names and every distinct asset is reassigned to one of the
// C shared chains (round-robin from a random offset, so escrows stay
// distinct whenever the deal has at most C assets). Amounts and the
// transfer structure are preserved.
func remap(base *deal.Spec, k, chains int, rng *sim.RNG) *deal.Spec {
	prefix := fmt.Sprintf("d%03d.", k)
	rename := func(p chain.Addr) chain.Addr { return chain.Addr(prefix + string(p)) }

	// Stable order over the base spec's distinct assets.
	keys := make([]string, 0, 4)
	seen := make(map[string]deal.AssetRef)
	for _, t := range base.Transfers {
		key := t.Asset.Key()
		if _, ok := seen[key]; !ok {
			seen[key] = t.Asset
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	off := rng.Intn(chains)
	mapped := make(map[string]deal.AssetRef, len(keys))
	for i, key := range keys {
		c := (off + i) % chains
		a := seen[key]
		a.Chain = chain.ID(fmt.Sprintf("chain%02d", c))
		a.Token = chain.Addr(fmt.Sprintf("tok%02d", c))
		a.Escrow = chain.Addr(fmt.Sprintf("esc%02d", c))
		mapped[key] = a
	}

	spec := &deal.Spec{
		ID:      prefix + base.ID,
		Parties: make([]chain.Addr, len(base.Parties)),
		T0:      base.T0,
		Delta:   base.Delta,
	}
	for i, p := range base.Parties {
		spec.Parties[i] = rename(p)
	}
	for _, t := range base.Transfers {
		a := mapped[t.Asset.Key()]
		a.Amount = t.Asset.Amount
		spec.Transfers = append(spec.Transfers, deal.Transfer{
			From: rename(t.From), To: rename(t.To), Asset: a,
		})
	}
	return spec
}
