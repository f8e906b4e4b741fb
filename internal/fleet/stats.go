package fleet

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"xdeal/internal/arena"
	"xdeal/internal/engine"
	"xdeal/internal/obs"
)

// Dist summarizes a sample distribution with percentiles.
type Dist struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// sketchGamma is the Sketch's log-bucket base: values within the same
// bucket differ by at most 2%, which bounds the percentile error.
const sketchGamma = 1.02

// Sketch is a constant-memory streaming summary of a sample
// distribution: count, sum, min and max are exact; percentiles come
// from a log-bucketed histogram at ~2% relative resolution (a DDSketch
// in miniature). Adding a sample is O(1) and the bucket count is
// bounded by the dynamic range of the data, not the sample count — so
// populations of millions of deals aggregate in constant memory. The
// summary is order-independent, so streaming and batch folds agree.
type Sketch struct {
	count    int
	sum      float64
	min, max float64
	nonpos   int // samples ≤ 0, kept out of the log buckets
	buckets  map[int]int
}

// Add folds one sample into the sketch.
func (s *Sketch) Add(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if v <= 0 {
		s.nonpos++
		return
	}
	if s.buckets == nil {
		s.buckets = make(map[int]int)
	}
	s.buckets[int(math.Floor(math.Log(v)/math.Log(sketchGamma)))]++
}

// Dist summarizes the sketch. Min, max and mean are exact; the
// percentiles are bucket representatives, within 2% of the true value.
func (s *Sketch) Dist() Dist {
	d := Dist{Count: s.count}
	if s.count == 0 {
		return d
	}
	d.Min, d.Max = s.min, s.max
	d.Mean = s.sum / float64(s.count)
	idxs := make([]int, 0, len(s.buckets))
	for i := range s.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	quantile := func(p float64) float64 {
		rank := int(math.Ceil(p * float64(s.count)))
		if rank <= s.nonpos {
			return 0 // non-positive samples sort below every bucket
		}
		seen := s.nonpos
		for _, i := range idxs {
			seen += s.buckets[i]
			if seen >= rank {
				// Geometric bucket midpoint, clamped to the observed range.
				v := math.Pow(sketchGamma, float64(i)+0.5)
				return math.Min(math.Max(v, s.min), s.max)
			}
		}
		return s.max
	}
	d.P50 = quantile(0.50)
	d.P90 = quantile(0.90)
	d.P99 = quantile(0.99)
	return d
}

// Violation flags one property violation with everything needed to
// replay the offending run.
type Violation struct {
	Index    int    `json:"index"`
	Seed     uint64 `json:"seed"`
	SpecID   string `json:"spec"`
	Protocol string `json:"protocol"`
	Property string `json:"property"` // "safety (P1)" | "liveness (P2)" | "strong liveness (P3)"
	Detail   string `json:"detail"`
}

// Counts tallies outcomes for one slice of the population.
type Counts struct {
	Runs      int `json:"runs"`
	Committed int `json:"committed"`
	Aborted   int `json:"aborted"`
	Mixed     int `json:"mixed"` // finalized inconsistently (non-atomic)
	// Unsettled runs ended atomically but with some escrow never
	// finalized — e.g. a deviator poisoned its escrow's Dinfo and kept
	// everyone else out (its own loss, not a violation).
	Unsettled int `json:"unsettled"`
	Errored   int `json:"errored"`
}

func (c *Counts) add(r Record) {
	c.Runs++
	if r.Err != "" {
		c.Errored++
		return
	}
	switch engine.Classify(r.Committed, r.Aborted, r.Atomic) {
	case engine.OutcomeCommitted:
		c.Committed++
	case engine.OutcomeAborted:
		c.Aborted++
	case engine.OutcomeMixed:
		c.Mixed++
	default:
		c.Unsettled++
	}
}

// CommitRate returns committed / runs (0 for an empty slice).
func (c Counts) CommitRate() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.Committed) / float64(c.Runs)
}

// Report aggregates a fleet sweep into population statistics. It is a
// pure function of the records folded into it, in fold order — so it is
// identical for every worker count that produced them, whether the
// records were folded as they streamed in or all at once.
type Report struct {
	Total Counts `json:"total"`
	// FullyCompliant covers runs with no adversaries and no outages —
	// the slice Property 3 (strong liveness) promises will commit.
	FullyCompliant Counts `json:"fully_compliant"`
	// Adversarial covers runs with at least one deviating party.
	Adversarial Counts `json:"adversarial"`

	ByShape    map[string]*Counts `json:"by_shape"`
	ByProtocol map[string]*Counts `json:"by_protocol"`

	// Gas and DeltaTime summarize per-deal gas and decision latency (in
	// Δ units) over finalized runs. Percentiles are sketch estimates
	// (within 2%); count, min, max and mean are exact.
	Gas       Dist `json:"gas"`
	DeltaTime Dist `json:"delta_time"`

	// Phases localizes decision latency: per-protocol distributions of
	// each lifecycle phase span (escrow, transfer, validation, decision,
	// total), in Δ units. Nil only when no folded record carried spans.
	Phases *PhasesBlock `json:"phases,omitempty"`

	// CriticalPath attributes decision latency to cause buckets
	// (protocol wait, block queueing, fee pricing-out, adversary,
	// scheduling slack): per-bucket shares by protocol and adversary
	// mix. Always on — computed post-hoc from retained receipts — and
	// nil only when no folded deal reached a decision.
	CriticalPath *CriticalPathBlock `json:"critical_path,omitempty"`

	// Violations flags every Property 1–3 violation with its seed. A
	// pathological population is truncated at maxViolations flags;
	// ViolationsTruncated counts the overflow (still a dirty report).
	Violations          []Violation `json:"violations,omitempty"`
	ViolationsTruncated int         `json:"violations_truncated,omitempty"`

	// Interference carries the arena sweep's cross-deal contention
	// metrics; nil outside arena mode.
	Interference *Interference `json:"interference,omitempty"`

	// OrderingGames carries the fee-market metrics; nil unless the
	// sweep ran with fee markets enabled. Present in both isolated and
	// arena sweeps.
	OrderingGames *OrderingGames `json:"ordering_games,omitempty"`

	// Hedging carries the sore-loser defense metrics; nil unless the
	// sweep ran hedged arenas (ArenaOptions.Hedge).
	Hedging *Hedging `json:"hedging,omitempty"`

	// BundleAuctions carries the combinatorial block-space auction
	// metrics; nil unless the sweep ran bundled arenas
	// (ArenaOptions.Bundles).
	BundleAuctions *BundleAuctions `json:"bundle_auctions,omitempty"`

	// ReplayCommand, when set by the caller, is a printf format with one
	// %d verb for a deal index; Fprint uses it to print a ready-to-paste
	// replay command next to each flagged violation. Not serialized.
	ReplayCommand string `json:"-"`
}

// Interference summarizes cross-deal contention in an arena sweep: how
// much sharing chains inflated decision latencies relative to each deal
// running alone, and what the adaptive adversaries did and cost.
type Interference struct {
	Arenas int `json:"arenas"`
	Chains int `json:"chains"`
	// LatencyInflation distributes per-deal arena/solo decision-latency
	// ratios; only deals that decided in both worlds contribute.
	LatencyInflation Dist `json:"latency_inflation"`
	// Sore-loser damage: triggers (parties that backed out on a price
	// move), deals that consequently failed to commit, and the fungible
	// value compliant counterparties had locked in them for nothing.
	SoreLoserTriggers int    `json:"sore_loser_triggers"`
	SoreLoserDeals    int    `json:"sore_loser_deals"`
	SoreLoserLoss     uint64 `json:"sore_loser_loss"`
	// Mempool races run and won by front-running parties.
	FrontRunAttempts int `json:"front_run_attempts"`
	FrontRunWins     int `json:"front_run_wins"`
	// VictimExclusionBlocks counts blocks — across all arenas with a
	// fee market, bundled or not — in which an adversarial deal's work
	// was included while a rival deal's arrived work was deferred past
	// capacity. It is the uniform exclusion currency that makes
	// single-tx fee bidding and bundle griefing comparable seed for
	// seed.
	VictimExclusionBlocks int `json:"victim_exclusion_blocks,omitempty"`
}

// OrderingGames summarizes a fee-market sweep: what block space cost,
// who paid for position, and whether bidding for it beat merely racing
// for it.
type OrderingGames struct {
	// BaseFee and TipBudget echo the sweep's fee configuration.
	BaseFee   uint64 `json:"base_fee"`
	TipBudget uint64 `json:"tip_budget"`
	// FeesBurned / FeesTipped total the population's fee flows.
	FeesBurned uint64 `json:"fees_burned"`
	FeesTipped uint64 `json:"fees_tipped"`
	// FeePerCommit is the mean fee spend attributable to each committed
	// deal — the cost-of-commerce gate CI budgets against.
	CommittedDeals int     `json:"committed_deals"`
	FeePerCommit   float64 `json:"fee_per_commit"`
	// Plain gossip races vs fee-bid races, run and won. Fee bidders
	// outbid the transactions they race, so their win rate should
	// dominate the plain racers' on the same seeds.
	FrontRunAttempts int `json:"front_run_attempts"`
	FrontRunWins     int `json:"front_run_wins"`
	FeeBidAttempts   int `json:"fee_bid_attempts"`
	FeeBidWins       int `json:"fee_bid_wins"`
	// InclusionDelay distributes mempool queuing delay by tip decile
	// (deciles of included transactions ranked by tip, ascending —
	// higher deciles should wait less; empty deciles are merged into
	// the next non-empty one).
	InclusionDelay []TipDecile `json:"inclusion_delay_by_tip_decile"`
}

// Hedging summarizes a hedged sweep: what sore-loser insurance cost,
// what it paid, and how much of the attack's damage it absorbed.
type Hedging struct {
	// Collateral and VolWindow echo the sweep's hedge configuration.
	Collateral float64 `json:"collateral"`
	VolWindow  int     `json:"vol_window"`
	// Binds and Settles count positions opened and settled.
	Binds   int `json:"binds"`
	Settles int `json:"settles"`
	// PremiumsPaid is the gross premium spend at bind; PremiumsRefunded
	// returned to holders whose cover went unused (net of the pool's
	// retention); PayoutsClaimed is the collateral paid to sore-loser
	// victims.
	PremiumsPaid     uint64 `json:"premiums_paid"`
	PremiumsRefunded uint64 `json:"premiums_refunded"`
	PayoutsClaimed   uint64 `json:"payouts_claimed"`
	// GrossSoreLoserLoss mirrors Interference.SoreLoserLoss;
	// ResidualSoreLoserLoss is what remains after payouts absorbed it
	// (per-deal, floored at zero). The defense's headline: residual
	// shrinking toward zero while gross stays put.
	GrossSoreLoserLoss    uint64 `json:"gross_sore_loser_loss"`
	ResidualSoreLoserLoss uint64 `json:"residual_sore_loser_loss"`
	// PremiumByVolDecile distributes premium cost (as % of insured
	// collateral) across deciles of binds ranked by the realized
	// base-fee volatility they were priced at — congested chains should
	// sit in the upper deciles at visibly higher rates.
	PremiumByVolDecile []VolDecile `json:"premium_by_vol_decile"`
}

// BundleAuctions summarizes a bundled sweep: how deals fared bidding
// for whole blocks, what bundle griefing attempted and landed, and how
// much timelock headroom winning bundles had left by bid level.
type BundleAuctions struct {
	// Budget echoes the sweep's per-griefer bid-increment cap.
	Budget uint64 `json:"bundle_budget"`
	// Auctions counts combinatorial auctions run (per chain per
	// block); Wins and Defers count bundle participations won and
	// deferred across them.
	Auctions int `json:"auctions"`
	Wins     int `json:"wins"`
	Defers   int `json:"defers"`
	// ExclusionAttempts counts bundle-griefing raises; Exclusion-
	// Successes counts auctions in which a targeted victim's bundle
	// was deferred while the griefer's won. A raise is a standing bid
	// — one attempt can land exclusions in many consecutive blocks, so
	// successes may exceed attempts.
	ExclusionAttempts  int `json:"exclusion_attempts"`
	ExclusionSuccesses int `json:"exclusion_successes"`
	// VictimExclusionBlocks mirrors Interference.VictimExclusionBlocks
	// for the bundled sweep (the tx-level twin reports the same metric
	// in its Interference block, which is what the two get compared on).
	VictimExclusionBlocks int `json:"victim_exclusion_blocks"`
	// SlackByBidDecile distributes winning bundles' deadline slack at
	// inclusion (in Δ of the owning deal) across deciles of wins
	// ranked by per-slot bid, ascending — desperate (high) bids should
	// sit in the upper deciles at visibly thinner slack.
	SlackByBidDecile []BidDecile `json:"deadline_slack_by_bid_decile"`
}

// WinRate is wins / (wins + defers) (0 with no participations).
func (b *BundleAuctions) WinRate() float64 {
	return winRate(b.Wins, b.Wins+b.Defers)
}

// DeferRate is defers / (wins + defers) — the CI-gated starvation
// signal: a population whose bundles mostly lose is a population whose
// timelocks are at risk.
func (b *BundleAuctions) DeferRate() float64 {
	return winRate(b.Defers, b.Wins+b.Defers)
}

// BidDecile is one per-slot-bid decile's deadline-slack summary.
type BidDecile struct {
	Decile     int    `json:"decile"`       // 1..10, by ascending per-slot bid
	MaxPerSlot uint64 `json:"max_per_slot"` // largest per-slot bid in the decile
	Wins       int    `json:"wins"`
	// MeanSlackDelta is the decile's mean deadline slack at inclusion,
	// in Δ units of the owning deals (negative: included past the
	// timelock horizon).
	MeanSlackDelta float64 `json:"mean_slack_delta"`
}

// bundleAgg folds bundle observations in constant memory: counters
// plus a per-slot-bid-keyed slack histogram (per-slot bids are small
// integers bounded by the bidder escalation and griefer budgets, so
// the key space stays tiny).
type bundleAgg struct {
	budget                uint64
	auctions              int
	wins, defers          int
	attempts, successes   int
	victimExclusionBlocks int
	byBid                 map[uint64]*bidSlackAgg
}

type bidSlackAgg struct {
	wins          int
	slackMilliSum int64
}

// EnableBundles arms the bundle-auctions block: the report will carry
// it even for an empty population, echoing the sweep's configuration.
func (a *Aggregator) EnableBundles(budget uint64) {
	if a.bundles == nil {
		a.bundles = &bundleAgg{byBid: make(map[uint64]*bidSlackAgg)}
	}
	a.bundles.budget = budget
}

// AddBundleArena folds one arena's bundle metrics (arena order, so the
// report stays byte-identical for any worker count).
func (a *Aggregator) AddBundleArena(inter arena.Interference) {
	if a.bundles == nil {
		return
	}
	b := a.bundles
	b.auctions += inter.BundleAuctions
	b.wins += inter.BundleWins
	b.defers += inter.BundleDefers
	b.attempts += inter.ExclusionAttempts
	b.successes += inter.ExclusionSuccesses
	b.victimExclusionBlocks += inter.VictimExclusionBlocks
	for _, s := range inter.BundleSamples {
		agg := b.byBid[s.PerSlot]
		if agg == nil {
			agg = &bidSlackAgg{}
			b.byBid[s.PerSlot] = agg
		}
		agg.wins++
		agg.slackMilliSum += s.SlackMilli
	}
}

// bundleAuctions finalizes the block.
func (b *bundleAgg) bundleAuctions() *BundleAuctions {
	return &BundleAuctions{
		Budget:                b.budget,
		Auctions:              b.auctions,
		Wins:                  b.wins,
		Defers:                b.defers,
		ExclusionAttempts:     b.attempts,
		ExclusionSuccesses:    b.successes,
		VictimExclusionBlocks: b.victimExclusionBlocks,
		SlackByBidDecile:      b.bidDeciles(),
	}
}

// bidDeciles splits the per-slot-bid-keyed slack histogram into
// deciles of wins ranked by bid (foldDeciles carries the shared
// whole-bucket assignment, so this table can never diverge from the
// tip-delay and hedge-premium ones).
func (b *bundleAgg) bidDeciles() []BidDecile {
	bids := make([]uint64, 0, len(b.byBid))
	total := 0
	for bid, agg := range b.byBid {
		bids = append(bids, bid)
		total += agg.wins
	}
	if total == 0 {
		return nil
	}
	sort.Slice(bids, func(i, j int) bool { return bids[i] < bids[j] })
	var out []BidDecile
	var slackSum int64
	foldDeciles(bids, total,
		func(bid uint64) int { return b.byBid[bid].wins },
		func(bid uint64) { slackSum += b.byBid[bid].slackMilliSum },
		func(decile int, maxBid uint64, wins int) {
			out = append(out, BidDecile{
				Decile: decile, MaxPerSlot: maxBid, Wins: wins,
				MeanSlackDelta: float64(slackSum) / 1000 / float64(wins),
			})
			slackSum = 0
		})
	return out
}

// Absorbed is the fraction of the gross sore-loser loss the payouts
// absorbed (0 with no loss).
func (h *Hedging) Absorbed() float64 {
	if h.GrossSoreLoserLoss == 0 {
		return 0
	}
	return 1 - float64(h.ResidualSoreLoserLoss)/float64(h.GrossSoreLoserLoss)
}

// VolDecile is one base-fee-volatility decile's premium summary.
type VolDecile struct {
	Decile    int `json:"decile"`      // 1..10, by ascending realized volatility
	MaxVolBps int `json:"max_vol_bps"` // largest volatility in the decile, basis points
	Binds     int `json:"binds"`
	// MeanPremiumPct is the decile's mean premium as a percentage of
	// the collateral it insured.
	MeanPremiumPct float64 `json:"mean_premium_pct"`
}

// hedgeAgg folds hedge observations in constant memory: counters plus
// a volatility-keyed histogram (volatilities arrive quantized to basis
// points, so the key space stays tiny).
type hedgeAgg struct {
	collateral float64
	volWindow  int
	binds      int
	settles    int
	premiums   uint64
	refunds    uint64
	payouts    uint64
	gross      uint64
	residual   uint64
	byVol      map[int]*volPremiumAgg
}

type volPremiumAgg struct {
	binds         int
	premiumSum    uint64
	collateralSum uint64
}

// EnableHedging arms the hedging block: the report will carry it even
// for an empty population, echoing the sweep's configuration.
func (a *Aggregator) EnableHedging(collateral float64, volWindow int) {
	if a.hedge == nil {
		a.hedge = &hedgeAgg{byVol: make(map[int]*volPremiumAgg)}
	}
	a.hedge.collateral, a.hedge.volWindow = collateral, volWindow
}

// AddHedgeArena folds one arena's hedge metrics (arena order, so the
// report stays byte-identical for any worker count).
func (a *Aggregator) AddHedgeArena(inter arena.Interference) {
	if a.hedge == nil {
		return
	}
	h := a.hedge
	h.binds += inter.HedgeBinds
	h.settles += inter.HedgeSettles
	h.premiums += inter.PremiumsPaid
	h.refunds += inter.PremiumsRefunded
	h.payouts += inter.PayoutsClaimed
	h.gross += inter.SoreLoserLoss
	h.residual += inter.ResidualSoreLoserLoss
	for _, s := range inter.HedgeSamples {
		v := h.byVol[s.VolBps]
		if v == nil {
			v = &volPremiumAgg{}
			h.byVol[s.VolBps] = v
		}
		v.binds++
		v.premiumSum += s.Premium
		v.collateralSum += s.Collateral
	}
}

// hedging finalizes the block.
func (h *hedgeAgg) hedging() *Hedging {
	return &Hedging{
		Collateral:            h.collateral,
		VolWindow:             h.volWindow,
		Binds:                 h.binds,
		Settles:               h.settles,
		PremiumsPaid:          h.premiums,
		PremiumsRefunded:      h.refunds,
		PayoutsClaimed:        h.payouts,
		GrossSoreLoserLoss:    h.gross,
		ResidualSoreLoserLoss: h.residual,
		PremiumByVolDecile:    h.volDeciles(),
	}
}

// volDeciles splits the volatility-keyed histogram into deciles of
// binds ranked by realized volatility (foldDeciles carries the shared
// whole-bucket assignment).
func (h *hedgeAgg) volDeciles() []VolDecile {
	vols := make([]int, 0, len(h.byVol))
	total := 0
	for v, agg := range h.byVol {
		vols = append(vols, v)
		total += agg.binds
	}
	if total == 0 {
		return nil
	}
	sort.Ints(vols)
	var out []VolDecile
	var premiumSum, collateralSum uint64
	foldDeciles(vols, total,
		func(v int) int { return h.byVol[v].binds },
		func(v int) {
			premiumSum += h.byVol[v].premiumSum
			collateralSum += h.byVol[v].collateralSum
		},
		func(decile int, maxVol int, binds int) {
			vd := VolDecile{Decile: decile, MaxVolBps: maxVol, Binds: binds}
			if collateralSum > 0 {
				vd.MeanPremiumPct = 100 * float64(premiumSum) / float64(collateralSum)
			}
			out = append(out, vd)
			premiumSum, collateralSum = 0, 0
		})
	return out
}

// WinRate returns wins/attempts (0 for none).
func winRate(wins, attempts int) float64 {
	if attempts == 0 {
		return 0
	}
	return float64(wins) / float64(attempts)
}

// FrontRunWinRate is the plain gossip racers' win rate.
func (o *OrderingGames) FrontRunWinRate() float64 {
	return winRate(o.FrontRunWins, o.FrontRunAttempts)
}

// FeeBidWinRate is the fee bidders' win rate.
func (o *OrderingGames) FeeBidWinRate() float64 {
	return winRate(o.FeeBidWins, o.FeeBidAttempts)
}

// TipDecile is one tip decile's queuing-delay summary.
type TipDecile struct {
	Decile    int     `json:"decile"`  // 1..10, by ascending tip rank
	MaxTip    uint64  `json:"max_tip"` // largest tip in the decile
	Count     int     `json:"count"`
	MeanDelay float64 `json:"mean_delay"` // mean ticks queued before inclusion
}

// feeAgg folds fee-market observations in constant memory: totals,
// race counters, and a tip-keyed delay histogram (tips are small
// integers bounded by the bid budget, so the key space stays tiny).
type feeAgg struct {
	baseFee, tipBudget uint64
	burned, tipped     uint64
	commitFees         uint64
	commits            int
	races, raceWins    int
	bids, bidWins      int
	tipDelay           map[uint64]*tipDelayAgg
}

type tipDelayAgg struct {
	count    int
	delaySum int64
}

// EnableFees arms the ordering-games block: the report will carry it
// even for an empty population, echoing the sweep's fee configuration.
func (a *Aggregator) EnableFees(baseFee, tipBudget uint64) {
	if a.fees == nil {
		a.fees = &feeAgg{tipDelay: make(map[uint64]*tipDelayAgg)}
	}
	a.fees.baseFee, a.fees.tipBudget = baseFee, tipBudget
}

// AddFeeWorld folds one shared world's fee summary (arena mode: totals
// and samples are per-substrate, not per-deal, so they fold once per
// arena in arena order).
func (a *Aggregator) AddFeeWorld(fees *engine.FeeSummary) {
	if fees == nil || a.fees == nil {
		return
	}
	a.fees.burned += fees.Burned
	a.fees.tipped += fees.Tipped
	a.fees.addSamples(fees.Samples)
}

// AddFeeRaces folds race counters metered outside records (arena mode).
func (a *Aggregator) AddFeeRaces(races, raceWins, bids, bidWins int) {
	if a.fees == nil {
		return
	}
	a.fees.races += races
	a.fees.raceWins += raceWins
	a.fees.bids += bids
	a.fees.bidWins += bidWins
}

func (f *feeAgg) addSamples(samples []engine.FeeSample) {
	for _, s := range samples {
		t := f.tipDelay[s.Tip]
		if t == nil {
			t = &tipDelayAgg{}
			f.tipDelay[s.Tip] = t
		}
		t.count++
		t.delaySum += s.Queued
	}
}

// orderingGames finalizes the block.
func (f *feeAgg) orderingGames() *OrderingGames {
	o := &OrderingGames{
		BaseFee:          f.baseFee,
		TipBudget:        f.tipBudget,
		FeesBurned:       f.burned,
		FeesTipped:       f.tipped,
		CommittedDeals:   f.commits,
		FrontRunAttempts: f.races,
		FrontRunWins:     f.raceWins,
		FeeBidAttempts:   f.bids,
		FeeBidWins:       f.bidWins,
	}
	if f.commits > 0 {
		o.FeePerCommit = float64(f.commitFees) / float64(f.commits)
	}
	o.InclusionDelay = f.deciles()
	return o
}

// foldDeciles assigns whole histogram buckets (keys ascending) to
// deciles of a total-item population: a bucket's items are consumed in
// key order against ceil(d·total/10) boundaries, so equal keys never
// straddle a boundary, and deciles left empty by a large bucket merge
// into the one that swallowed them. absorb folds a bucket's payload
// into the open decile; flush emits a finished decile (its index, the
// largest key it swallowed, its item count) and must reset the
// caller's payload accumulators. Shared by the tip-delay and
// hedge-premium decile tables so the two can never diverge.
func foldDeciles[K cmp.Ordered](keys []K, total int, count func(K) int, absorb func(K), flush func(decile int, maxKey K, items int)) {
	cum, d, open, items := 0, 1, 1, 0
	var maxKey K
	boundary := func(d int) int { return (d*total + 9) / 10 } // ceil(d·total/10)
	for _, k := range keys {
		absorb(k)
		items += count(k)
		maxKey = k
		cum += count(k)
		for d <= 10 && cum >= boundary(d) {
			d++
		}
		if d > open {
			flush(open, maxKey, items)
			open, items = d, 0
		}
	}
}

// deciles splits the tip-keyed histogram into deciles of included
// transactions ranked by tip.
func (f *feeAgg) deciles() []TipDecile {
	tips := make([]uint64, 0, len(f.tipDelay))
	total := 0
	for tip, agg := range f.tipDelay {
		tips = append(tips, tip)
		total += agg.count
	}
	if total == 0 {
		return nil
	}
	sort.Slice(tips, func(i, j int) bool { return tips[i] < tips[j] })
	var out []TipDecile
	var delaySum int64
	foldDeciles(tips, total,
		func(t uint64) int { return f.tipDelay[t].count },
		func(t uint64) { delaySum += f.tipDelay[t].delaySum },
		func(decile int, maxTip uint64, txs int) {
			out = append(out, TipDecile{
				Decile: decile, MaxTip: maxTip, Count: txs,
				MeanDelay: float64(delaySum) / float64(txs),
			})
			delaySum = 0
		})
	return out
}

// maxViolations bounds the violation list so even a population where
// everything is on fire aggregates in constant memory.
const maxViolations = 1000

// Aggregator folds Records into a Report incrementally, in constant
// memory: counters and sketches instead of sample slices. Fold order
// defines the report (violation order), so fold in index order.
type Aggregator struct {
	rep        *Report
	gas, dtime Sketch
	fees       *feeAgg              // nil unless EnableFees armed the ordering block
	hedge      *hedgeAgg            // nil unless EnableHedging armed the hedging block
	bundles    *bundleAgg           // nil unless EnableBundles armed the bundle block
	phases     map[string]*phaseAgg // protocol -> phase sketches, created on first span
	crit       map[string]*critAgg  // protocol|mix -> attribution sketches, created on first decided deal
	metrics    *obs.Registry        // nil unless EnableObs attached a registry
	flight     *obs.Recorder        // nil unless EnableObs attached a recorder
}

// EnableObs attaches the observability instruments: the registry gains
// fleet-level counters (deals run, violations) as records fold, and the
// flight recorder receives one evidence event per violation or error.
// Both are passive — the Report itself never changes.
func (a *Aggregator) EnableObs(metrics *obs.Registry, flight *obs.Recorder) {
	a.metrics = metrics
	a.flight = flight
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{rep: &Report{
		ByShape:    make(map[string]*Counts),
		ByProtocol: make(map[string]*Counts),
	}}
}

// StrongLivenessViolated is Property 3's test of one run: every party
// compliant, no outage, a deal whose transfers can be sequenced, and
// still no commit. The sweep and both replays flag a run by it.
func StrongLivenessViolated(adversaries int, outage, sequenceable, committed bool) bool {
	return adversaries == 0 && !outage && sequenceable && !committed
}

// Add folds one record into the aggregate.
func (a *Aggregator) Add(r Record) {
	rep := a.rep
	rep.Total.add(r)
	if r.Adversaries == 0 && !r.Outage {
		rep.FullyCompliant.add(r)
	}
	if r.Adversaries > 0 {
		rep.Adversarial.add(r)
	}
	bucket(rep.ByShape, r.Shape).add(r)
	bucket(rep.ByProtocol, r.Protocol).add(r)
	if r.Err == "" {
		a.gas.Add(float64(r.Gas))
		if r.DeltaTime > 0 {
			a.dtime.Add(r.DeltaTime)
		}
	}
	if r.Spans != nil {
		if a.phases == nil {
			a.phases = make(map[string]*phaseAgg)
		}
		p := a.phases[r.Protocol]
		if p == nil {
			p = &phaseAgg{}
			a.phases[r.Protocol] = p
		}
		p.add(r.Spans)
	}
	a.addCrit(r)
	if r.Fee != nil && a.fees != nil {
		f := a.fees
		f.burned += r.Fee.Burned
		f.tipped += r.Fee.Tipped
		f.races += r.Fee.Races
		f.raceWins += r.Fee.RaceWins
		f.bids += r.Fee.Bids
		f.bidWins += r.Fee.BidWins
		f.addSamples(r.Fee.Samples)
		if r.Committed {
			f.commits++
			f.commitFees += r.Fee.DealFees
		}
	}
	for _, v := range r.SafetyViolations {
		rep.flag(r, "safety (P1)", v)
	}
	for _, v := range r.LivenessViolations {
		rep.flag(r, "liveness (P2)", v)
	}
	p3 := r.Err == "" && StrongLivenessViolated(r.Adversaries, r.Outage, r.Sequenceable, r.Committed)
	if p3 {
		rep.flag(r, "strong liveness (P3)", "all parties compliant yet the deal did not commit")
	}
	if r.Err != "" {
		rep.flag(r, "error", r.Err)
	}
	a.metrics.Counter("fleet.deals_run").Inc()
	if flags := len(r.SafetyViolations) + len(r.LivenessViolations); flags > 0 {
		a.metrics.Counter("fleet.violations").Add(uint64(flags))
	}
	if p3 {
		a.metrics.Counter("fleet.violations").Inc()
	}
	if r.Err != "" {
		a.metrics.Counter("fleet.errors").Inc()
	}
	recordFlight(a.flight, r, p3)
}

// Report finalizes and returns the aggregate. The aggregator may keep
// folding afterwards; Report is cheap and repeatable.
func (a *Aggregator) Report() *Report {
	a.rep.Gas = a.gas.Dist()
	a.rep.DeltaTime = a.dtime.Dist()
	if len(a.phases) > 0 {
		pb := &PhasesBlock{}
		protos := make([]string, 0, len(a.phases))
		for p := range a.phases {
			protos = append(protos, p)
		}
		sort.Strings(protos)
		for _, p := range protos {
			pb.Protocols = append(pb.Protocols, ProtocolPhases{
				Protocol: p,
				Phases:   a.phases[p].phases(),
			})
		}
		a.rep.Phases = pb
	}
	a.rep.CriticalPath = a.criticalPath()
	if a.fees != nil {
		a.rep.OrderingGames = a.fees.orderingGames()
	}
	if a.hedge != nil {
		a.rep.Hedging = a.hedge.hedging()
	}
	if a.bundles != nil {
		a.rep.BundleAuctions = a.bundles.bundleAuctions()
	}
	return a.rep
}

func bucket(m map[string]*Counts, key string) *Counts {
	c, ok := m[key]
	if !ok {
		c = &Counts{}
		m[key] = c
	}
	return c
}

func (rep *Report) flag(r Record, property, detail string) {
	if len(rep.Violations) >= maxViolations {
		rep.ViolationsTruncated++
		return
	}
	rep.Violations = append(rep.Violations, Violation{
		Index: r.Index, Seed: r.Seed, SpecID: r.SpecID,
		Protocol: r.Protocol, Property: property, Detail: detail,
	})
}

// Clean reports whether the population saw no property violations and
// no errors.
func (rep *Report) Clean() bool {
	return len(rep.Violations) == 0 && rep.ViolationsTruncated == 0
}

// WriteJSON renders the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Fprint renders the report as human-readable tables. Output is fully
// deterministic (map slices are emitted in sorted key order).
func (rep *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "fleet sweep: %d deals\n\n", rep.Total.Runs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "slice\truns\tcommitted\taborted\tmixed\tunsettled\terrors\tcommit rate")
	printCounts := func(name string, c Counts) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\n",
			name, c.Runs, c.Committed, c.Aborted, c.Mixed, c.Unsettled, c.Errored, 100*c.CommitRate())
	}
	printCounts("total", rep.Total)
	printCounts("fully compliant", rep.FullyCompliant)
	printCounts("adversarial", rep.Adversarial)
	for _, key := range sortedKeys(rep.ByShape) {
		printCounts("shape="+key, *rep.ByShape[key])
	}
	for _, key := range sortedKeys(rep.ByProtocol) {
		printCounts("protocol="+key, *rep.ByProtocol[key])
	}
	tw.Flush()

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tcount\tmin\tmean\tp50\tp90\tp99\tmax")
	fmt.Fprintf(tw, "gas\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
		rep.Gas.Count, rep.Gas.Min, rep.Gas.Mean, rep.Gas.P50, rep.Gas.P90, rep.Gas.P99, rep.Gas.Max)
	fmt.Fprintf(tw, "decision (Δ)\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
		rep.DeltaTime.Count, rep.DeltaTime.Min, rep.DeltaTime.Mean, rep.DeltaTime.P50,
		rep.DeltaTime.P90, rep.DeltaTime.P99, rep.DeltaTime.Max)
	if inf := rep.Interference; inf != nil {
		li := inf.LatencyInflation
		fmt.Fprintf(tw, "latency inflation (×)\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			li.Count, li.Min, li.Mean, li.P50, li.P90, li.P99, li.Max)
	}
	tw.Flush()

	if ph := rep.Phases; ph != nil {
		fmt.Fprintf(w, "\nphase latency (Δ units, by protocol):\n")
		ptw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ptw, "  protocol\tphase\tcount\tmean\tp50\tp90\tp99\tmax")
		for _, pp := range ph.Protocols {
			for _, pd := range pp.Phases {
				fmt.Fprintf(ptw, "  %s\t%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
					pp.Protocol, pd.Phase, pd.Count, pd.Mean, pd.P50, pd.P90, pd.P99, pd.Max)
			}
		}
		ptw.Flush()
	}

	if cb := rep.CriticalPath; cb != nil {
		fprintCriticalPath(w, cb)
	}

	if inf := rep.Interference; inf != nil {
		fmt.Fprintf(w, "\ninterference (%d arenas × %d shared chains):\n", inf.Arenas, inf.Chains)
		fmt.Fprintf(w, "  sore losers: %d triggered, %d deals killed, %d in compliant deposits locked for nothing\n",
			inf.SoreLoserTriggers, inf.SoreLoserDeals, inf.SoreLoserLoss)
		fmt.Fprintf(w, "  front-running: %d mempool races, %d won\n",
			inf.FrontRunAttempts, inf.FrontRunWins)
		if inf.VictimExclusionBlocks > 0 {
			fmt.Fprintf(w, "  exclusion: %d blocks included adversarial work while deferring a victim deal's\n",
				inf.VictimExclusionBlocks)
		}
	}

	if og := rep.OrderingGames; og != nil {
		fmt.Fprintf(w, "\nordering games (fee market: base fee %d, tip budget %d):\n", og.BaseFee, og.TipBudget)
		fmt.Fprintf(w, "  fees: %d burned, %d tipped; %.1f per committed deal (%d committed)\n",
			og.FeesBurned, og.FeesTipped, og.FeePerCommit, og.CommittedDeals)
		fmt.Fprintf(w, "  races: plain %d/%d won (%.1f%%), fee-bid %d/%d won (%.1f%%)\n",
			og.FrontRunWins, og.FrontRunAttempts, 100*og.FrontRunWinRate(),
			og.FeeBidWins, og.FeeBidAttempts, 100*og.FeeBidWinRate())
		if len(og.InclusionDelay) > 0 {
			fmt.Fprintf(w, "  inclusion delay by tip decile:\n")
			dtw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(dtw, "    decile\tmax tip\ttxs\tmean delay")
			for _, td := range og.InclusionDelay {
				fmt.Fprintf(dtw, "    d%d\t%d\t%d\t%.1f\n", td.Decile, td.MaxTip, td.Count, td.MeanDelay)
			}
			dtw.Flush()
		}
	}

	if b := rep.BundleAuctions; b != nil {
		fmt.Fprintf(w, "\nbundle auctions (combinatorial block space, griefer budget %d):\n", b.Budget)
		fmt.Fprintf(w, "  auctions: %d run; bundles %d won, %d deferred (%.1f%% win, %.1f%% defer)\n",
			b.Auctions, b.Wins, b.Defers, 100*b.WinRate(), 100*b.DeferRate())
		fmt.Fprintf(w, "  griefing: %d exclusion bids, %d landed; %d victim-exclusion blocks\n",
			b.ExclusionAttempts, b.ExclusionSuccesses, b.VictimExclusionBlocks)
		if len(b.SlackByBidDecile) > 0 {
			fmt.Fprintf(w, "  deadline slack by per-slot-bid decile:\n")
			btw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(btw, "    decile\tmax bid/slot\twins\tmean slack (Δ)")
			for _, bd := range b.SlackByBidDecile {
				fmt.Fprintf(btw, "    d%d\t%d\t%d\t%.2f\n", bd.Decile, bd.MaxPerSlot, bd.Wins, bd.MeanSlackDelta)
			}
			btw.Flush()
		}
	}

	if h := rep.Hedging; h != nil {
		fmt.Fprintf(w, "\nhedging (collateral ×%g, premium vol window %d blocks):\n", h.Collateral, h.VolWindow)
		fmt.Fprintf(w, "  cover: %d positions bound, %d settled; premiums %d paid, %d refunded\n",
			h.Binds, h.Settles, h.PremiumsPaid, h.PremiumsRefunded)
		fmt.Fprintf(w, "  payouts: %d claimed on post-trigger aborts\n", h.PayoutsClaimed)
		fmt.Fprintf(w, "  sore-loser loss: %d gross -> %d residual (%.1f%% absorbed)\n",
			h.GrossSoreLoserLoss, h.ResidualSoreLoserLoss, 100*h.Absorbed())
		if len(h.PremiumByVolDecile) > 0 {
			fmt.Fprintf(w, "  premium by base-fee-volatility decile:\n")
			htw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(htw, "    decile\tmax vol (bps)\tbinds\tpremium %")
			for _, vd := range h.PremiumByVolDecile {
				fmt.Fprintf(htw, "    d%d\t%d\t%d\t%.2f\n", vd.Decile, vd.MaxVolBps, vd.Binds, vd.MeanPremiumPct)
			}
			htw.Flush()
		}
	}

	if total := len(rep.Violations) + rep.ViolationsTruncated; total > 0 {
		fmt.Fprintf(w, "\nPROPERTY VIOLATIONS (%d) — replay with the flagged seed:\n", total)
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "  deal %d seed %d spec %s (%s): %s — %s\n",
				v.Index, v.Seed, v.SpecID, v.Protocol, v.Property, v.Detail)
			if rep.ReplayCommand != "" {
				fmt.Fprintf(w, "    replay: "+rep.ReplayCommand+"\n", v.Index)
			}
		}
		if rep.ViolationsTruncated > 0 {
			fmt.Fprintf(w, "  ... and %d more (truncated)\n", rep.ViolationsTruncated)
		}
	} else {
		fmt.Fprintf(w, "\nno safety/liveness violations among compliant parties\n")
	}
}

func sortedKeys(m map[string]*Counts) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
