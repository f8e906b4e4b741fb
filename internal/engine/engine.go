// Package engine orchestrates end-to-end deal executions: it constructs
// the multi-chain world a deal spans (chains, token contracts, escrow
// managers, the CBC when needed), runs the parties through the deal's
// phases, and evaluates the paper's correctness properties over the final
// state:
//
//	Property 1 (safety): a compliant party that pays anything receives
//	everything; one that misses anything pays nothing.
//	Property 2 (weak liveness): no compliant party's assets stay locked.
//	Property 3 (strong liveness): with all parties compliant, every
//	transfer happens.
//
// The engine is the measurement apparatus for the reproduction: it
// tracks per-phase gas (Figure 4) and per-phase duration in Δ units
// (Figure 7).
//
// A Substrate can be reset and built on again, so a fleet worker reuses
// one world's scheduler, chains, contracts and parties across all its
// isolated deals. Everything a substrate builds is valid only until its
// next Reset; nothing that outlives a deal — a Result, a fleet record,
// registered metrics — may alias it (see Substrate).
package engine

import (
	"crypto/ed25519"
	"fmt"
	"slices"
	"sort"
	"strings"

	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/clearing"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/hedge"
	"xdeal/internal/party"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
	"xdeal/internal/token"
	"xdeal/internal/trace"
)

// Options configures one deal's build. The world it runs in (chains,
// network, capacity, fee market, hedging, bundles) is a SubstrateConfig:
// Build creates a private substrate from World, while BuildOn ignores
// World and reads the substrate's own configuration, so every deal on a
// shared substrate sees one world.
type Options struct {
	Seed     uint64
	Protocol party.Protocol
	// Behaviors configures deviations per party; absent parties are
	// compliant.
	Behaviors map[chain.Addr]party.Behavior
	// F is the CBC committee's fault tolerance (CBC protocol only).
	F           int
	ProofFormat party.ProofFormat
	// FixedTimeout enables the broken naive timelock rule (ablation).
	FixedTimeout bool
	// CBCDelays overrides the CBC's network model; nil uses the asset
	// chains' (SubstrateConfig.Delays).
	CBCDelays chain.DelayPolicy
	// Censor lists parties whose CBC votes validators drop.
	Censor map[chain.Addr]bool
	// Patience is the CBC give-up timer; defaults to 10Δ.
	Patience sim.Duration
	// SerializeRounds restores the strict escrow-confirm → transfer →
	// validate → vote sequencing on every party (the paper's Δ-round
	// presentation; the pre-pipelining behavior). Default off: parties
	// pipeline their submissions and let receipts arbitrate.
	SerializeRounds bool
	// RunLimit caps simulated time; 0 runs to quiescence.
	RunLimit sim.Time
	// Reconfigure the CBC committee this many times mid-deal (ablation).
	Reconfigurations int
	// Trace, when non-nil, receives a chronological record of every
	// protocol-relevant event across all chains and the CBC.
	Trace *trace.Log
	// CBCOutage is a DoS window against the CBC itself (§9).
	CBCOutage Outage
	// LabelPrefix prefixes every transaction label this deal emits
	// (setup and party phases), keeping gas attributable per deal when
	// many deals share one substrate's chains. Empty outside arenas.
	LabelPrefix string
	// Adaptive wires reactive adversary strategies (sore-loser,
	// front-runner) to arena-level observable state: a market price
	// oracle and metric callbacks. Nil outside arena runs.
	Adaptive *party.AdaptiveHooks
	// World configures the private substrate Build creates for this
	// deal alone; BuildOn ignores it.
	World SubstrateConfig
}

// Outage is a window during which a chain produces no blocks.
type Outage struct {
	From, Until sim.Time
}

// Substrate is the shared execution fabric deals run on: one scheduler,
// a set of chains, and the token and escrow contracts deployed on them.
// Build creates a private substrate per deal — the classic isolated
// world. The arena creates one substrate and builds many deals onto it,
// so their transactions compete for the same mempools and block space
// and their escrows coexist on the same contracts (the escrow Book and
// the timelock vote ledger are keyed by deal id, so contract state stays
// per-deal while congestion is shared). A fleet worker keeps one
// substrate for a whole sweep and resets it between its isolated deals
// (see Reset).
//
// Ownership: everything a substrate builds — its scheduler and chains,
// the contracts on them, each World and the parties in it — is the
// substrate's, and is valid only until its next Reset, which takes it
// back for reuse. So nothing that outlives a deal may alias any of it.
// What the substrate hands out for keeps never aliases it: a Result
// (its Gas meter and Fees summary included), the metrics
// RegisterMetrics folds into a registry, and the receipts a chain
// executes, which are never reused.
type Substrate struct {
	Sched  *sim.Scheduler
	Chains map[chain.ID]*chain.Chain

	cfg  SubstrateConfig
	rng  *sim.RNG
	pubs map[string]ed25519.PublicKey
	// memo is the world's signature scheme, shared by every chain,
	// party and CBC of the substrate: they sign facts through it and
	// verify only its facts (see sig.Memo), so no ed25519 runs inside
	// the world. It lives and dies with this world, and so do its
	// counted hits, deliberately: the generator reuses deal ids and
	// party names across a population, and a global count would score
	// cross-deal hits a real deployment (deal id = nonce, §5) never sees.
	// Reset empties it.
	memo      *sig.Memo
	cbcs      []*cbc.CBC // every deal's CBC service, in build order
	fungibles map[string]*token.Fungible
	nfts      map[string]*token.NFT
	managers  map[string]EscrowInspector
	protocols map[string]party.Protocol // escrow key -> manager's protocol
	hedges    map[string]*hedge.Manager // escrow key -> hedging contract
	unions    []chainUnion              // merged chain meters per chain set (see chainGas)
	receipts  map[string][]dealReceipt  // causal receipts by label prefix (see fileReceipt)
	// adversaries records every party built here that runs a deviation
	// strategy (party.Adversary), whichever deal it belongs to: a fee
	// displacement by one is adversary-induced (see queueBucket).
	adversaries map[chain.Addr]bool

	// parts holds what the substrate builds, for Reset to take back and
	// BuildOn to reset and reuse (see pool).
	parts struct {
		chains    pool[hostedChain]
		fungibles pool[*token.Fungible]
		nfts      pool[*token.NFT]
		timelocks pool[*timelock.Manager]
		cbcs      pool[*cbc.Manager]
		worlds    pool[*World]
		parties   pool[*party.Party]
	}
}

// hostedChain is a substrate's chain with the receipt observer that files
// its receipts into the substrate's index, built once with the chain.
type hostedChain struct {
	*chain.Chain
	file func(*chain.Receipt)
}

// chainUnion is the merge of the meters of the chains ids names.
type chainUnion struct {
	ids []chain.ID
	*gas.Union
}

// SubstrateConfig holds the world settings every deal on a substrate
// shares. Chains are created lazily as deals reference them, all with
// this configuration.
type SubstrateConfig struct {
	// BlockInterval for all chains; defaults to 10 ticks.
	BlockInterval sim.Duration
	// Delays is the asset chains' network model; defaults to
	// SyncPolicy{1, 5}.
	Delays chain.DelayPolicy
	// MaxBlockTxs caps per-block transaction capacity on every chain
	// (0 = unlimited). Capacity is what makes shared chains contend.
	MaxBlockTxs int
	// Outages maps chains to denial-of-service windows during which they
	// produce no blocks (§5.3/§9 DoS analysis).
	Outages map[chain.ID]Outage
	// FeeMarket, when non-nil, attaches an EIP-1559-style fee market to
	// every chain (see internal/feemarket): tip-ordered blocks, a base
	// fee that tracks block fullness, and per-label fee accounting.
	FeeMarket *feemarket.Config
	// Hedge, when non-nil, deploys a premium-priced sore-loser
	// insurance contract (see internal/hedge) next to every fungible
	// escrow manager, priced off each chain's realized base-fee
	// volatility, and wires Behavior.Hedged parties to it.
	Hedge *hedge.Params
	// Bundles enables combinatorial block-space auctions (see
	// internal/bundle): every fee-market chain runs per-block winner
	// determination over all-or-nothing deal bundles, and every party
	// routes its protocol transactions through its deal's bundle,
	// priced by a deadline-escalating per-slot bid. Requires FeeMarket;
	// ignored without one.
	Bundles bool
}

// newVerifyMemo makes a substrate's memo, the first time it needs one. It
// is a variable only so the differential test can run whole populations
// without one (export_test.go).
var newVerifyMemo = sig.NewMemo

// defaultDelays is the asset chains' network model when the config names
// none, boxed once.
var defaultDelays chain.DelayPolicy = chain.SyncPolicy{Min: 1, Max: 5}

// NewSubstrate creates an empty shared world; seed drives its network
// delays.
func NewSubstrate(seed uint64, cfg SubstrateConfig) *Substrate {
	return (&Substrate{}).Reset(seed, cfg)
}

// Reset empties the substrate into the state NewSubstrate(seed, cfg)
// creates, and returns it. Its scheduler, memo and maps are emptied in
// place; its chains, token and escrow contracts, worlds and parties become
// spares, which BuildOn resets and reuses instead of building new ones. Everything the substrate handed out before is
// invalid afterwards (see Substrate). Reset is for a substrate that ran
// one isolated deal at a time; arenas never reset theirs.
func (s *Substrate) Reset(seed uint64, cfg SubstrateConfig) *Substrate {
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 10
	}
	if cfg.Delays == nil {
		cfg.Delays = defaultDelays
	}
	if s.Sched == nil {
		s.Sched, s.rng = sim.NewScheduler(), new(sim.RNG)
	}
	s.Sched.Reset()
	s.rng.Reset(seed ^ 0x9e3779b9)
	if s.memo == nil {
		s.memo = newVerifyMemo()
	}
	s.memo.Reset()
	p := &s.parts
	p.chains.recycle()
	p.fungibles.recycle()
	p.nfts.recycle()
	p.timelocks.recycle()
	p.cbcs.recycle()
	p.worlds.recycle()
	p.parties.recycle()
	s.cfg = cfg
	s.Chains = cleared(s.Chains)
	s.pubs = cleared(s.pubs)
	s.fungibles = cleared(s.fungibles)
	s.nfts = cleared(s.nfts)
	s.managers = cleared(s.managers)
	s.protocols = cleared(s.protocols)
	s.hedges = cleared(s.hedges)
	clear(s.adversaries)
	s.cbcs = emptied(s.cbcs)
	s.unions = emptied(s.unions)
	if s.receipts == nil {
		s.receipts = make(map[string][]dealReceipt)
	}
	for prefix, rs := range s.receipts {
		s.receipts[prefix] = emptied(rs)
	}
	return s
}

// pool is one kind of part a substrate builds: the parts built since its
// last Reset, and the spares earlier Resets took back.
type pool[T any] struct{ built, spare []T }

// get returns a spare made fresh by reset, or else a new part from build,
// and records it as built.
func (p *pool[T]) get(reset func(T), build func() T) T {
	var t T
	if n := len(p.spare); n > 0 {
		t, p.spare[n-1] = p.spare[n-1], t
		p.spare = p.spare[:n-1]
		reset(t)
	} else {
		t = build()
	}
	p.built = append(p.built, t)
	return t
}

// recycle makes every part built since the last Reset a spare.
func (p *pool[T]) recycle() {
	p.spare = append(p.spare, p.built...)
	p.built = emptied(p.built)
}

// cleared returns m emptied, or a new map if m is nil.
func cleared[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return make(M)
	}
	clear(m)
	return m
}

// emptied returns s cut to length 0, its elements zeroed first so the
// storage it keeps holds no reference.
func emptied[S ~[]E, E any](s S) S {
	clear(s)
	return s[:0]
}

// chain returns the substrate's chain for cfg, subscribed to the receipt
// index.
func (s *Substrate) chain(cfg chain.Config) *chain.Chain {
	h := s.parts.chains.get(func(h hostedChain) { h.Reset(cfg, s.Sched, s.rng) }, func() hostedChain {
		c := chain.New(cfg, s.Sched, s.rng)
		return hostedChain{c, func(r *chain.Receipt) { s.fileReceipt(c, r) }}
	})
	h.SubscribeReceipts(h.file)
	return h.Chain
}

// fungible returns an empty fungible ledger minted by the setup authority.
func (s *Substrate) fungible() *token.Fungible {
	return s.parts.fungibles.get(func(f *token.Fungible) { f.Reset(mintAuthority) },
		func() *token.Fungible { return token.NewFungible(mintAuthority) })
}

// nft returns an empty NFT registry minted by the setup authority.
func (s *Substrate) nft() *token.NFT {
	return s.parts.nfts.get(func(n *token.NFT) { n.Reset(mintAuthority) },
		func() *token.NFT { return token.NewNFT(mintAuthority) })
}

// manager returns an empty escrow manager of protocol proto for asset a.
func (s *Substrate) manager(proto party.Protocol, a deal.AssetRef, fixedTimeout bool) EscrowInspector {
	if proto != party.ProtoTimelock {
		return s.parts.cbcs.get(func(m *cbc.Manager) { m.Reset(a.Token, a.Kind) },
			func() *cbc.Manager { return cbc.NewManager(escrow.NewBook(a.Token, a.Kind)) })
	}
	tm := s.parts.timelocks.get(func(m *timelock.Manager) { m.Reset(a.Token, a.Kind) },
		func() *timelock.Manager { return timelock.New(escrow.NewBook(a.Token, a.Kind)) })
	tm.FixedTimeout = fixedTimeout
	return tm
}

// party returns the party New(addr, cfg) builds.
func (s *Substrate) party(addr chain.Addr, cfg party.Config) *party.Party {
	return s.parts.parties.get(func(p *party.Party) { p.Reset(addr, cfg) },
		func() *party.Party { return party.New(addr, cfg) })
}

// mintAuthority mints every deal's assets at setup.
const mintAuthority chain.Addr = "mint-authority"

// chainGas returns the merge of the meters of the chains ids names, shared
// by every deal on those chains and merged again only once one changes.
func (s *Substrate) chainGas(ids []chain.ID) *gas.Meter {
	for _, u := range s.unions {
		if slices.Equal(u.ids, ids) {
			return u.Meter()
		}
	}
	meters := make([]*gas.Meter, len(ids))
	for i, id := range ids {
		meters[i] = s.Chains[id].Meter()
	}
	u := chainUnion{ids, gas.NewUnion(gas.DefaultSchedule(), meters...)}
	s.unions = append(s.unions, u)
	return u.Meter()
}

// fileReceipt indexes r, just executed on c, under the prefix before its
// causal label, if any (no causal label ends another, so it is unique).
func (s *Substrate) fileReceipt(c *chain.Chain, r *chain.Receipt) {
	for _, l := range causalLabels {
		if prefix, ok := strings.CutSuffix(r.Tx.Label, l); ok {
			s.receipts[prefix] = append(s.receipts[prefix], dealReceipt{chain: c.ID(), idx: len(c.Receipts()) - 1, r: r})
			return
		}
	}
}

// World is a fully wired simulation of one deal, possibly sharing its
// substrate with other deals. It belongs to its substrate and is valid
// until the substrate's next Reset (see Substrate).
type World struct {
	Spec    *deal.Spec
	Sched   *sim.Scheduler
	Chains  map[chain.ID]*chain.Chain
	CBC     *cbc.CBC
	Parties map[chain.Addr]*party.Party

	// Fungibles and NFTs index token contracts by escrow key.
	Fungibles map[string]*token.Fungible
	NFTs      map[string]*token.NFT
	// Managers indexes escrow managers by escrow key.
	Managers map[string]EscrowInspector
	// Hedges indexes hedging contracts by escrow key (only under
	// SubstrateConfig.Hedge, and only at fungible escrows).
	Hedges map[string]*hedge.Manager

	sub  *Substrate
	opts Options
	// plan indexes Spec per party once, for the parties' event loops and
	// for evaluation.
	plan *deal.Plan
	keys map[string]sig.KeyPair
	memo *sig.Memo // the substrate's signature memo

	// outageBeyondDelta is the longest configured DoS window on any of
	// this deal's chains that exceeds the spec's Δ — the condition under
	// which the timelock synchrony assumption (§5) no longer holds and a
	// Property 1 flag is annotated synchrony-broken rather than treated
	// as a protocol bug. Zero when every outage fits within Δ.
	outageBeyondDelta sim.Duration

	// Metrics.
	initialFungible map[holding]uint64     // balance per party and escrow key
	initialTokens   map[tokenAt]chain.Addr // owner per escrow key and token id
	escrowedAt      map[string]sim.Time    // escrow key/party -> time
	transferredAt   []sim.Time
	validatedAt     map[chain.Addr]sim.Time
	outcomeAt       map[string]sim.Time
	startAt         sim.Time

	// The observer and the validation hook the world registers, built
	// once with the world so that registering allocates nothing.
	wantsFn     func(chain.Event) bool
	observeFn   func(chain.Event)
	onValidated func(chain.Addr, sim.Time)
}

// holding is a party's balance at one escrow key.
type holding struct {
	party chain.Addr
	key   string
}

// tokenAt is one token id at one escrow key.
type tokenAt struct {
	key, id string
}

// world returns an empty world for spec on the substrate.
func (s *Substrate) world(spec *deal.Spec, opts Options, plan *deal.Plan) *World {
	return s.parts.worlds.get(func(w *World) { w.reset(s, spec, opts, plan) }, func() *World {
		w := &World{}
		w.wantsFn, w.observeFn = w.wantsEvent, w.observe
		w.onValidated = func(p chain.Addr, at sim.Time) { w.validatedAt[p] = at }
		w.reset(s, spec, opts, plan)
		return w
	})
}

// reset empties w into a world for spec on s, keeping its maps' storage
// and its callbacks.
func (w *World) reset(s *Substrate, spec *deal.Spec, opts Options, plan *deal.Plan) {
	*w = World{
		Spec:            spec,
		Sched:           s.Sched,
		Chains:          cleared(w.Chains),
		Parties:         cleared(w.Parties),
		Fungibles:       cleared(w.Fungibles),
		NFTs:            cleared(w.NFTs),
		Managers:        cleared(w.Managers),
		Hedges:          cleared(w.Hedges),
		sub:             s,
		opts:            opts,
		plan:            plan,
		keys:            cleared(w.keys),
		memo:            s.memo,
		initialFungible: cleared(w.initialFungible),
		initialTokens:   cleared(w.initialTokens),
		escrowedAt:      cleared(w.escrowedAt),
		transferredAt:   w.transferredAt[:0],
		validatedAt:     cleared(w.validatedAt),
		outcomeAt:       cleared(w.outcomeAt),
		wantsFn:         w.wantsFn,
		observeFn:       w.observeFn,
		onValidated:     w.onValidated,
	}
}

// EscrowInspector is what the engine needs from an escrow manager:
// deal-state inspection, regardless of protocol.
type EscrowInspector interface {
	chain.Contract
	Deal(id string) *escrow.State
	ViewOf(id string) escrow.View
}

// Build constructs an isolated world for a deal spec: a private
// substrate inhabited by this deal alone. The returned world is
// quiescent: tokens minted, approvals granted, nothing started.
func Build(spec *deal.Spec, opts Options) (*World, error) {
	return NewSubstrate(opts.Seed, opts.World).BuildOn(spec, opts)
}

// BuildOn constructs the world for a deal spec on this substrate,
// creating any chains and contracts the deal references that do not
// exist yet and reusing those that do. Deals built onto one substrate
// share chains (and therefore mempools and block capacity) and escrow
// contracts; contract-level deal state stays isolated per deal id. All
// escrows at one contract address must run the same commit protocol.
// BuildOn drains the scheduler to settle setup transactions, so it must
// not be called after deals have started.
func (s *Substrate) BuildOn(spec *deal.Spec, opts Options) (*World, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Protocol == party.ProtoTimelock {
		if err := spec.ValidateTimelock(); err != nil {
			return nil, err
		}
	}
	for _, p := range spec.Parties {
		if err := opts.Behaviors[p].Validate(); err != nil {
			return nil, fmt.Errorf("engine: party %s: %w", p, err)
		}
	}
	sched := s.Sched
	plan := deal.NewPlan(spec)
	w := s.world(spec, opts, plan)

	// Record whether any DoS window on this deal's chains outlasts Δ —
	// the synchrony-assumption breach checkSafety annotates (§5).
	for _, a := range plan.Escrows {
		if o, ok := s.cfg.Outages[a.Chain]; ok && o.Until-o.From > spec.Delta && o.Until-o.From > w.outageBeyondDelta {
			w.outageBeyondDelta = o.Until - o.From
		}
	}

	// Party keys; public keys known to every chain (§3). The substrate
	// keyring is shared by reference with every chain, so parties of
	// later-built deals are visible to earlier-created chains.
	for _, p := range spec.Parties {
		kp := sig.GenerateKeyPair(string(p))
		w.keys[string(p)] = kp
		s.pubs[string(p)] = kp.Public
	}

	// Chains and asset/escrow contracts, created or reused.
	for j, a := range plan.Escrows {
		c, ok := s.Chains[a.Chain]
		if !ok {
			outage := s.cfg.Outages[a.Chain]
			c = s.chain(chain.Config{
				ID:            a.Chain,
				BlockInterval: s.cfg.BlockInterval,
				Delays:        s.cfg.Delays,
				Schedule:      gas.DefaultSchedule(),
				Keys:          s.pubs,
				VerifyMemo:    s.memo,
				OutageFrom:    outage.From,
				OutageUntil:   outage.Until,
				MaxBlockTxs:   s.cfg.MaxBlockTxs,
				FeeMarket:     s.cfg.FeeMarket,
				Bundles:       s.cfg.Bundles,
			})
			s.Chains[a.Chain] = c
		}
		w.Chains[a.Chain] = c
		key := plan.EscrowKeys[j]
		if a.Kind == deal.Fungible {
			f := s.fungibles[key]
			if f == nil {
				switch existing := c.Contract(a.Token).(type) {
				case nil:
					f = s.fungible()
					c.MustDeploy(a.Token, f)
				case *token.Fungible:
					f = existing
				default:
					return nil, fmt.Errorf("engine: %s on %s is not a fungible token contract", a.Token, a.Chain)
				}
				s.fungibles[key] = f
			}
			w.Fungibles[key] = f
		} else {
			n := s.nfts[key]
			if n == nil {
				switch existing := c.Contract(a.Token).(type) {
				case nil:
					n = s.nft()
					c.MustDeploy(a.Token, n)
				case *token.NFT:
					n = existing
				default:
					return nil, fmt.Errorf("engine: %s on %s is not an NFT contract", a.Token, a.Chain)
				}
				s.nfts[key] = n
			}
			w.NFTs[key] = n
		}
		if mgr := s.managers[key]; mgr != nil {
			if s.protocols[key] != opts.Protocol {
				return nil, fmt.Errorf("engine: escrow %s already managed under protocol %s, deal %s wants %s",
					key, s.protocols[key], spec.ID, opts.Protocol)
			}
			w.Managers[key] = mgr
			continue
		}
		mgr := s.manager(opts.Protocol, a, opts.FixedTimeout)
		s.managers[key] = mgr
		s.protocols[key] = opts.Protocol
		w.Managers[key] = mgr
		if err := c.Deploy(a.Escrow, mgr); err != nil {
			return nil, err
		}
	}

	// Hedging contracts: premium-priced sore-loser insurance (see
	// internal/hedge) paired with every fungible escrow manager this
	// deal touches, created once per substrate and reused like the
	// managers themselves. Premiums are priced off the hosting chain's
	// realized base-fee volatility, so insurance on a congested chain
	// costs more.
	hp := s.cfg.Hedge
	if hp != nil {
		resolved := hp.WithDefaults()
		for j, a := range plan.Escrows {
			if a.Kind != deal.Fungible {
				continue
			}
			key := plan.EscrowKeys[j]
			if hm := s.hedges[key]; hm != nil {
				w.Hedges[key] = hm
				continue
			}
			c := s.Chains[a.Chain]
			hm := hedge.New(a.Escrow, resolved, volSource(c, resolved.VolWindow))
			// Bundle-loss streaks feed the premium surcharge: a deal
			// whose bundle keeps losing the block-space auction is a
			// timelock at risk. On chains without bundle auctions the
			// streak is always 0 and the surcharge never binds.
			hm.SetStreakSource(c.BundleLossStreak)
			if err := c.Deploy(hedge.AddrFor(a.Escrow), hm); err != nil {
				return nil, err
			}
			s.hedges[key] = hm
			w.Hedges[key] = hm
		}
	}

	// CBC service: one per deal, even on a shared substrate (the paper's
	// CBC orders one deal's votes; arena deals each bring their own).
	if opts.Protocol == party.ProtoCBC {
		cbcDelays := opts.CBCDelays
		if cbcDelays == nil {
			cbcDelays = s.cfg.Delays
		}
		f := opts.F
		if f <= 0 {
			f = 1
		}
		w.CBC = cbc.New(cbc.Config{
			Tag: "cbc/" + spec.ID, F: f,
			BlockInterval: s.cfg.BlockInterval,
			Delays:        cbcDelays,
			Schedule:      gas.DefaultSchedule(),
			Censor:        opts.Censor,
			OutageFrom:    opts.CBCOutage.From,
			OutageUntil:   opts.CBCOutage.Until,
			Memo:          s.memo,
		}, sched, s.rng)
		s.cbcs = append(s.cbcs, w.CBC)
	}

	// Fund parties: each receives exactly its escrow obligations.
	w.fund()
	sched.Run() // drain setup transactions

	// Record initial holdings.
	for _, p := range spec.Parties {
		//xdeal:unordered a keyed insert, one distinct key per visit
		for key, f := range w.Fungibles {
			w.initialFungible[holding{p, key}] = f.BalanceOf(p)
		}
	}
	for i, t := range spec.Transfers {
		if key := plan.TransferKeys[i]; t.Asset.Kind == deal.NonFungible && w.NFTs[key] != nil {
			w.initialTokens[tokenAt{key, t.Asset.ID}] = w.NFTs[key].OwnerOf(t.Asset.ID)
		}
	}

	// Engine-side observation: outcome and phase timing events.
	//xdeal:unordered each chain gains exactly one subscriber here, and chains are independent — subscription order across chains cannot reach any report
	for _, c := range w.Chains {
		c.SubscribeFiltered(w.wantsFn, w.observeFn)
	}
	if opts.Trace != nil {
		w.attachTrace(opts.Trace)
	}

	// Parties.
	patience := opts.Patience
	if patience <= 0 {
		patience = 10 * spec.Delta
	}
	var hedgeCfg *party.HedgeConfig
	if hp != nil && len(w.Hedges) > 0 {
		resolved := hp.WithDefaults()
		contracts := make(map[string]chain.Addr, len(w.Hedges))
		for key, hm := range w.Hedges {
			contracts[key] = hedge.AddrFor(hm.Escrow)
		}
		hedgeCfg = &party.HedgeConfig{
			Contracts:     contracts,
			Collateral:    resolved.Collateral,
			TriggerDeltas: resolved.TriggerDeltas,
		}
	}
	for i, addr := range spec.Parties {
		addr := addr
		cfg := party.Config{
			Spec:            spec,
			Plan:            w.plan,
			Protocol:        opts.Protocol,
			Chains:          w.Chains,
			Sched:           sched,
			Keys:            w.keys[string(addr)],
			Memo:            w.memo,
			Behavior:        opts.Behaviors[addr],
			Patience:        patience,
			SerializeRounds: opts.SerializeRounds,
			LabelPrefix:     opts.LabelPrefix,
			Adaptive:        opts.Adaptive,
			Hedge:           hedgeCfg,
			OnValidated:     w.onValidated,
		}
		if opts.Protocol == party.ProtoCBC {
			cfg.CBCHooks = &party.CBCHooks{
				CBC:          w.CBC,
				ProofFormat:  opts.ProofFormat,
				PublishStart: i == 0,
			}
		}
		p := s.party(addr, cfg)
		w.Parties[addr] = p
		if p.Adversary() {
			if s.adversaries == nil {
				s.adversaries = make(map[chain.Addr]bool)
			}
			s.adversaries[addr] = true
		}
	}
	return w, nil
}

// fund mints each party's obligations and grants escrow operator rights.
func (w *World) fund() {
	label := w.opts.LabelPrefix + LabelSetup
	for _, p := range w.Spec.Parties {
		for _, ob := range w.plan.For(p).Obligations {
			a := ob.Asset
			c := w.Chains[a.Chain]
			if a.Kind == deal.Fungible {
				c.Submit(&chain.Tx{Sender: mintAuthority, Contract: a.Token,
					Method: token.MethodMint, Label: label,
					Args:      token.MintArgs{To: p, Amount: ob.Amount},
					OnReceipt: setupReceipt})
			} else {
				for _, id := range ob.Tokens {
					c.Submit(&chain.Tx{Sender: mintAuthority, Contract: a.Token,
						Method: token.MethodMint, Label: label,
						Args:      token.MintArgs{To: p, Token: id},
						OnReceipt: setupReceipt})
				}
			}
			c.Submit(&chain.Tx{Sender: p, Contract: a.Token,
				Method: token.MethodApprove, Label: label,
				Args:      token.ApproveArgs{Operator: a.Escrow, Allowed: true},
				OnReceipt: setupReceipt})
		}
	}
}

// setupReceipt guards world construction: a rejected mint or approval
// means every later balance delta is wrong, so fail loudly (the same
// contract MustDeploy offers for deployment).
func setupReceipt(r *chain.Receipt) {
	if r.Err != nil {
		panic(fmt.Sprintf("engine: setup transaction %s.%s rejected: %v",
			r.Tx.Contract, r.Tx.Method, r.Err))
	}
}

// LabelSetup tags world-construction transactions (minting, approvals).
const LabelSetup = "setup"

// dealLabels are the transaction labels a deal's activity runs under.
var dealLabels = []string{
	LabelSetup, party.LabelEscrow, party.LabelTransfer, party.LabelCommit,
	party.LabelAbort, party.LabelHedge,
}

// volSource exposes a chain's realized base-fee volatility to the
// hedging contract deployed on it (0 on FIFO chains: nothing congests,
// so insurance is floor-priced).
func volSource(c *chain.Chain, window int) func() float64 {
	return func() float64 {
		if fm := c.FeeMarket(); fm != nil {
			return fm.Volatility(window)
		}
		return 0
	}
}

// DealGas returns the gas attributable to this deal. On a private
// substrate that is every chain's whole meter plus the CBC's — exactly
// Gas.Used(). On a shared substrate, where chain meters mix many
// deals, the deal's own transactions are identified by its label
// prefix instead; its CBC (always private to the deal) is added whole,
// matching the isolated-mode convention that CBCGas is a breakdown of
// the total, not an addition to it.
func (w *World) DealGas() uint64 {
	var g uint64
	for _, id := range sortedChainIDs(w.Chains) {
		m := w.Chains[id].Meter()
		if w.opts.LabelPrefix == "" {
			g += m.Used()
			continue
		}
		for _, label := range dealLabels {
			g += m.UsedByLabel(w.opts.LabelPrefix + label)
		}
	}
	if w.CBC != nil {
		g += w.CBC.Meter().Used()
	}
	return g
}

// DealFees returns the fee-market spend (base fees burned plus tips
// paid) attributable to this deal, mirroring DealGas: every chain's
// whole fee ledger on a private substrate, the deal's label-prefixed
// share on a shared one. Zero without a fee market.
func (w *World) DealFees() uint64 {
	var total feemarket.Totals
	for _, id := range sortedChainIDs(w.Chains) {
		fm := w.Chains[id].FeeMarket()
		if fm == nil {
			continue
		}
		if w.opts.LabelPrefix == "" {
			total.Add(fm.Totals())
			continue
		}
		// Prefix attribution (label prefixes are "dealID/", and distinct
		// deal ids never prefix each other) stays correct even if the
		// party grows new phase labels.
		total.Add(fm.PrefixTotals(w.opts.LabelPrefix))
	}
	return total.Sum()
}

// FeeSample is one included transaction's fee-market observation: the
// tip it bid and how long it queued in the mempool before inclusion.
type FeeSample struct {
	Tip    uint64
	Queued int64
}

// FeeSummary aggregates fee-market activity across a set of chains.
type FeeSummary struct {
	// Burned and Tipped total the fee flows (base fees are burned,
	// tips go to block position).
	Burned uint64
	Tipped uint64
	// Samples holds one (tip, queuing delay) observation per included
	// transaction, in deterministic (chain id, execution) order — the
	// raw material for inclusion-delay-by-tip-decile reports.
	Samples []FeeSample
}

// CollectFees summarizes fee-market activity over chains (a world's or
// a whole substrate's). Returns nil when no chain runs a fee market.
func CollectFees(chains map[chain.ID]*chain.Chain) *FeeSummary {
	var sum *FeeSummary
	for _, id := range sortedChainIDs(chains) {
		c := chains[id]
		fm := c.FeeMarket()
		if fm == nil {
			continue
		}
		if sum == nil {
			sum = &FeeSummary{}
		}
		t := fm.Totals()
		sum.Burned += t.Burned
		sum.Tipped += t.Tipped
		for _, r := range c.Receipts() {
			sum.Samples = append(sum.Samples, FeeSample{Tip: r.TipPaid, Queued: int64(r.Queued())})
		}
	}
	return sum
}

// wantsEvent is the observer's filter: its own deal's events and every
// event that names no deal (see chain.Event.Topic), such as the token
// mints that fund a later deal on a shared substrate. observe ignores
// those, but each delivery is a scheduler event: BuildOn drains the
// scheduler until earlier worlds' observers have received a new deal's
// set-up events, so what they are delivered fixes a shared substrate's
// time base. Other deals' events are never delivered.
func (w *World) wantsEvent(ev chain.Event) bool {
	return ev.Topic == "" || ev.Topic == w.Spec.ID
}

// observe records protocol milestones from chain events. Nothing is built
// before the deal id matches: the untopiced events wantsEvent admits are
// never the deal's own.
func (w *World) observe(ev chain.Event) {
	key := func() string { return string(ev.Chain) + "/" + string(ev.Contract) }
	switch ev.Kind {
	case escrow.EventEscrowed:
		d := ev.Data.(escrow.EscrowedEvent)
		if d.Deal == w.Spec.ID {
			w.escrowedAt[key()+"/"+string(d.Party)] = ev.Time
		}
	case escrow.EventTransferred:
		d := ev.Data.(escrow.TransferredEvent)
		if d.Deal == w.Spec.ID {
			w.transferredAt = append(w.transferredAt, ev.Time)
		}
	case escrow.EventCommitted, escrow.EventAborted:
		d := ev.Data.(escrow.OutcomeEvent)
		if d.Deal == w.Spec.ID {
			k := key()
			if _, seen := w.outcomeAt[k]; !seen {
				w.outcomeAt[k] = ev.Time
			}
		}
	}
}

// Start announces the deal through the clearing service at the current
// time (§4.1) without driving the simulation: parties begin on receipt,
// but no events run until the caller drains the scheduler. Callers
// running several deals on one substrate schedule each deal's Start and
// drain once; single-deal callers use Run.
func (w *World) Start() {
	w.startAt = w.Sched.Now()
	svc := clearing.New(w.Sched)
	// The engine validates specs at Build time and deliberately permits
	// experiments on unusual shapes, so the clearing-desk well-formedness
	// veto is disabled here; parties still judge the deal themselves.
	svc.Validate = false
	order := append([]chain.Addr(nil), w.Spec.Parties...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, addr := range order {
		p := w.Parties[addr]
		svc.Register(clearing.ParticipantFunc(func(*deal.Spec) { p.Start() }))
	}
	if err := svc.Announce(w.Spec, w.Sched.Now()); err != nil {
		panic(err) // spec was validated at Build time; unreachable
	}
	if w.opts.Reconfigurations > 0 && w.CBC != nil {
		// Reconfigure mid-deal, spaced across the early protocol.
		for i := 1; i <= w.opts.Reconfigurations; i++ {
			w.Sched.After(sim.Duration(i)*w.sub.cfg.BlockInterval*3, w.CBC.Reconfigure)
		}
	}
}

// Evaluate computes the deal's result. Call once the scheduler has
// drained (or hit the caller's run limit); Run does this for you.
func (w *World) Evaluate() *Result { return w.evaluate() }

// Run executes the deal: the clearing service broadcasts the spec at the
// current time (§4.1), parties start on receipt, and the simulation
// drains (or runs to the configured limit). Returns the evaluated result.
func (w *World) Run() *Result {
	w.Start()
	if w.opts.RunLimit > 0 {
		w.Sched.RunUntil(w.opts.RunLimit)
	} else {
		w.Sched.Run()
	}
	return w.evaluate()
}

// GasMerged returns the union of all chains' meters (plus the CBC's) as a
// meter of the deal's own: a layer, holding the CBC's meter and whatever
// the caller charges, over its chains' shared merge (see chainGas).
func (w *World) GasMerged() *gas.Meter {
	m := gas.Layered(w.sub.chainGas(sortedChainIDs(w.Chains)))
	if w.CBC != nil {
		m.Merge(w.CBC.Meter())
	}
	return m
}

// sortedChainIDs returns the ids of chains in ascending order, the order
// every per-chain loop of the engine visits them in.
func sortedChainIDs(chains map[chain.ID]*chain.Chain) []chain.ID {
	ids := make([]chain.ID, 0, len(chains))
	for id := range chains {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Keys exposes a party's keypair (tests and watchtowers).
func (w *World) Keys(p chain.Addr) sig.KeyPair { return w.keys[string(p)] }

// String summarizes the world configuration.
func (w *World) String() string {
	return fmt.Sprintf("world{deal=%s protocol=%s chains=%d escrows=%d parties=%d}",
		w.Spec.ID, w.opts.Protocol, len(w.Chains), len(w.Managers), len(w.Spec.Parties))
}

// attachTrace records all chain and CBC activity into the trace log.
func (w *World) attachTrace(log *trace.Log) {
	for _, id := range sortedChainIDs(w.Chains) {
		c := w.Chains[id]
		src := string(c.ID())
		c.Subscribe(func(ev chain.Event) {
			log.Addf(ev.Time, src, ev.Kind, "%s by %s: %s",
				ev.Contract, ev.Sender, renderEventData(ev.Data))
		})
		// Inclusion records: each transaction is logged at the block
		// that actually included it, with its mempool queuing delay —
		// so a transaction deferred past full blocks shows its real
		// inclusion time, not the time it was published.
		c.SubscribeReceipts(func(r *chain.Receipt) {
			log.Addf(r.Time, src, "included",
				"%s.%s by %s at height %d after %d queued (tip %d)",
				r.Tx.Contract, r.Tx.Method, r.Tx.Sender, r.Height, r.Queued(), r.TipPaid)
		})
	}
	if w.CBC != nil {
		w.CBC.Subscribe(func(b *cbc.Block) {
			for _, e := range b.Entries {
				log.Addf(b.Time, "cbc", e.Kind.String(), "deal %s by %s", e.Deal, e.Party)
			}
		})
	}
}

// renderEventData renders known event payloads compactly.
func renderEventData(data any) string {
	switch d := data.(type) {
	case escrow.EscrowedEvent:
		if len(d.Tokens) > 0 {
			return fmt.Sprintf("%s escrowed %v", d.Party, d.Tokens)
		}
		return fmt.Sprintf("%s escrowed %d", d.Party, d.Amount)
	case escrow.TransferredEvent:
		if len(d.Tokens) > 0 {
			return fmt.Sprintf("%s -> %s %v (tentative)", d.From, d.To, d.Tokens)
		}
		return fmt.Sprintf("%s -> %s %d (tentative)", d.From, d.To, d.Amount)
	case escrow.OutcomeEvent:
		return fmt.Sprintf("deal %s %s", d.Deal, d.Status)
	case timelock.VoteEvent:
		return fmt.Sprintf("vote by %s, path %v", d.Voter, d.Vote.Signers)
	default:
		return fmt.Sprintf("%v", data)
	}
}
