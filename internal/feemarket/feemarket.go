// Package feemarket implements a deterministic per-chain fee market in
// the style of EIP-1559: a protocol-set base fee that rises when blocks
// run over a fullness target and decays when they run under it, plus
// per-transaction priority tips that block builders order by.
//
// The market splits a transaction's fee into two flows, mirroring the
// EIP-1559 accounting:
//
//   - the base fee is burned: every included transaction pays the base
//     fee current at its inclusion block, and congestion (full blocks)
//     ratchets that price up for everyone;
//   - the tip is the sender's bid for position: the block builder orders
//     the mempool by tip, descending, tie-broken by arrival sequence so
//     equal bids preserve FIFO and the whole simulation stays a pure
//     function of its seed.
//
// Fees are accounting, not token transfers: parties' on-chain balances
// are deal assets whose conservation the engine's safety checks assert,
// so fee spend is tracked in the market's own ledger (total and
// per-label, the same attribution scheme the gas meter uses) rather
// than debited from token contracts. This is exactly what the ordering
// games need — who got in first, and what the queue position cost —
// without entangling fee flows in Property 1–3 bookkeeping.
//
// Everything here is integer arithmetic on explicitly ordered state, so
// a market's trajectory is bit-identical across runs, worker counts,
// and platforms.
package feemarket

import (
	"math/bits"
	"strings"
)

// DefaultBaseFee is the base fee of a market's first block when its
// Config leaves Initial zero.
const DefaultBaseFee = 100

// Config parameterizes a chain's fee market.
type Config struct {
	// Initial is the base fee of the first block (default
	// DefaultBaseFee).
	Initial uint64
	// Min is the floor the base fee decays toward (default 1).
	Min uint64
	// Target is the block fullness (in transactions) the base fee
	// steers toward: fuller blocks raise it, emptier blocks lower it.
	// Zero derives half the chain's block capacity, or 4 on chains
	// without a capacity cap.
	Target int
	// AdjustQuotient bounds the per-block base-fee move to 1/quotient
	// of the current fee, as in EIP-1559 (default 8, i.e. ±12.5%).
	AdjustQuotient uint64
}

// withDefaults resolves zero fields against the chain's block capacity.
func (c Config) withDefaults(maxBlockTxs int) Config {
	if c.Initial == 0 {
		c.Initial = DefaultBaseFee
	}
	if c.Min == 0 {
		c.Min = 1
	}
	if c.Target <= 0 {
		if maxBlockTxs > 0 {
			c.Target = maxBlockTxs / 2
		} else {
			c.Target = 4
		}
		if c.Target < 1 {
			c.Target = 1
		}
	}
	if c.AdjustQuotient == 0 {
		c.AdjustQuotient = 8
	}
	return c
}

// Totals is a burned/tipped fee pair.
type Totals struct {
	Burned uint64
	Tipped uint64
}

// Add folds another pair in.
func (t *Totals) Add(o Totals) {
	t.Burned += o.Burned
	t.Tipped += o.Tipped
}

// Sum returns burned + tipped.
func (t Totals) Sum() uint64 { return t.Burned + t.Tipped }

// maxHistory bounds the per-block base-fee history the market retains:
// enough for any realistic volatility window while keeping the market
// constant-memory over arbitrarily long simulations.
const maxHistory = 512

// Market is one chain's fee market state: the current base fee and the
// fee ledger. It is driven by the chain's block builder — Charge once
// per included transaction, then Seal once per block — and is not safe
// for concurrent use (the simulation is single-threaded).
type Market struct {
	cfg     Config
	baseFee uint64
	total   Totals
	byLabel map[string]*Totals
	// history is a ring of the base fees charged by the last sealed
	// blocks (oldest evicted first): the chain's realized congestion
	// trajectory, which hedging premiums are priced from. Once full,
	// head indexes the oldest entry and writes wrap in place, so
	// recording stays O(1) in the block-production hot path.
	history []uint64
	head    int
	sealed  int // total blocks sealed (history may have evicted some)
}

// New creates a market. maxBlockTxs is the hosting chain's block
// capacity, used to derive the default fullness target.
func New(cfg Config, maxBlockTxs int) *Market {
	cfg = cfg.withDefaults(maxBlockTxs)
	return &Market{
		cfg:     cfg,
		baseFee: cfg.Initial,
		byLabel: make(map[string]*Totals),
	}
}

// BaseFee returns the base fee the next block's transactions will burn.
func (m *Market) BaseFee() uint64 { return m.baseFee }

// Charge records one included transaction: it burns the current base
// fee and pays its tip, attributed to the transaction's label (the same
// per-deal labels the gas meter uses). Failed transactions pay like
// successful ones — they occupied block space.
func (m *Market) Charge(label string, tip uint64) {
	t := m.byLabel[label]
	if t == nil {
		t = &Totals{}
		m.byLabel[label] = t
	}
	t.Burned += m.baseFee
	t.Tipped += tip
	m.total.Burned += m.baseFee
	m.total.Tipped += tip
}

// Seal closes a block of `included` transactions and moves the base fee
// for the next one: up when the block ran over target, down toward Min
// when under, each move bounded by baseFee/AdjustQuotient and at least
// 1 so the fee always reacts to sustained pressure. The cap binds even
// when a block overshoots twice the target (possible on chains whose
// capacity exceeds 2×Target, or with no capacity cap at all), so the
// ±1/quotient bound holds for every fullness sequence.
func (m *Market) Seal(included int) {
	m.record(m.baseFee)
	target := m.cfg.Target
	switch {
	case included > target:
		delta := m.delta(uint64(included - target))
		if m.baseFee > ^uint64(0)-delta {
			m.baseFee = ^uint64(0) // saturate instead of wrapping
		} else {
			m.baseFee += delta
		}
	case included < target:
		delta := m.delta(uint64(target - included))
		if m.baseFee <= m.cfg.Min+delta {
			m.baseFee = m.cfg.Min
		} else {
			m.baseFee -= delta
		}
	}
}

// delta sizes one base-fee move for an `excess` transactions deviation
// from target: baseFee·excess/target/quotient, clamped to
// [1, max(1, baseFee/quotient)]. The product goes through a 128-bit
// intermediate so a fee near the top of the uint64 range cannot wrap
// (the fuzzer found exactly that: a small quotient lets the fee climb
// until baseFee·excess overflows and the "rise" collapses the fee).
func (m *Market) delta(excess uint64) uint64 {
	target := uint64(m.cfg.Target)
	limit := m.baseFee / m.cfg.AdjustQuotient
	var delta uint64
	if excess >= target {
		// baseFee·excess/target ≥ baseFee, so the clamp binds exactly.
		delta = limit
	} else {
		hi, lo := bits.Mul64(m.baseFee, excess)
		div := target * m.cfg.AdjustQuotient
		if div/m.cfg.AdjustQuotient != target || hi >= div {
			delta = limit // divisor overflow, or quotient past 2^64
		} else {
			delta, _ = bits.Div64(hi, lo, div)
		}
	}
	if delta > limit {
		delta = limit
	}
	if delta < 1 {
		delta = 1
	}
	return delta
}

// record appends one sealed block's base fee to the bounded history,
// overwriting the oldest entry once the ring is full.
func (m *Market) record(fee uint64) {
	m.sealed++
	if len(m.history) < maxHistory {
		m.history = append(m.history, fee)
		return
	}
	m.history[m.head] = fee
	m.head = (m.head + 1) % maxHistory
}

// at returns the i-th retained base fee, oldest first.
func (m *Market) at(i int) uint64 {
	return m.history[(m.head+i)%len(m.history)]
}

// Volatility is the chain's realized base-fee volatility: the mean
// absolute fractional per-block base-fee move over the last `window`
// block transitions (fewer when the history is shorter). This is the
// deterministic congestion signal hedging premiums are priced from — a
// chain whose base fee is churning is a chain where timelocked capital
// is exposed, so insuring deposits on it costs more. Returns 0 with
// fewer than two sealed blocks. Each per-block fractional move is
// bounded by max(1/AdjustQuotient, 1/fee) — the quotient bound, except
// next to the floor where the minimum one-unit move dominates — so the
// result lies in [0, 1].
func (m *Market) Volatility(window int) float64 {
	n := len(m.history)
	if window <= 0 || n < 2 {
		return 0
	}
	lo := n - 1 - window
	if lo < 0 {
		lo = 0
	}
	var sum float64
	steps := 0
	for i := lo; i < n-1; i++ {
		prev, next := m.at(i), m.at(i+1)
		if prev == 0 {
			continue
		}
		move := float64(next) - float64(prev)
		if move < 0 {
			move = -move
		}
		sum += move / float64(prev)
		steps++
	}
	if steps == 0 {
		return 0
	}
	return sum / float64(steps)
}

// Totals returns the market-wide fee ledger.
func (m *Market) Totals() Totals { return m.total }

// PrefixTotals sums the fees of every label sharing a prefix — how
// engine.DealFees attributes fees per deal on substrates shared by many
// deals, whose labels are "dealID/phase".
func (m *Market) PrefixTotals(prefix string) Totals {
	var out Totals
	//xdeal:unordered the fold only adds uint64 counters, and integer sums commute, so visit order cannot reach the result
	for l, t := range m.byLabel {
		if strings.HasPrefix(l, prefix) {
			out.Add(*t)
		}
	}
	return out
}
