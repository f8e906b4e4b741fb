// Package bundle implements the deterministic per-block combinatorial
// auction that makes ordering games deal-granular: a deal submits its
// pending transactions for a chain as one all-or-nothing bundle with an
// aggregate bid, and the block builder selects the set of bundles (and
// loose tip-bidding transactions) that fills the block's capacity.
//
// Winner determination for an all-or-nothing combinatorial auction is a
// 0/1 knapsack — NP-hard in general — so the builder runs the classic
// greedy approximation: candidates ordered by bid-per-slot density,
// descending, ties broken by arrival sequence (so equal densities
// preserve FIFO and the simulation stays a pure function of its seed),
// each candidate included whole when it fits the remaining capacity and
// deferred intact otherwise. Density greed alone can strand a large
// well-paying bundle behind a swarm of small ones, so the builder also
// prices the plain FIFO assembly of the same mempool and keeps
// whichever plan raises more revenue — the auction therefore never
// collects less than the FIFO baseline's tip take, an invariant the
// fuzz suite drives directly.
//
// Everything here is integer arithmetic over explicitly ordered inputs:
// density comparisons cross-multiply through 128-bit intermediates
// rather than divide, so two candidates compare identically on every
// platform and for every ordering of the surrounding code.
package bundle

import (
	"math/bits"
	"sort"
)

// Candidate is one atomic unit competing for block space: a deal's
// all-or-nothing bundle (Slots > 1, Bid = the aggregate bundle bid) or
// a loose transaction (Slots = 1, Bid = its priority tip). Seq is the
// arrival sequence used for FIFO tie-breaks.
type Candidate struct {
	// Slots is how many block slots the candidate occupies (its
	// transaction count); must be positive.
	Slots int
	// Bid is the aggregate amount the candidate pays for inclusion.
	Bid uint64
	// Seq is the candidate's arrival sequence: lower arrived first.
	Seq uint64
}

// Outcome is one auction's result over a candidate set.
type Outcome struct {
	// Winners holds the indices of included candidates, in inclusion
	// order (the order the block executes them).
	Winners []int
	// Deferred holds the indices of candidates that did not fit whole,
	// in arrival-sequence order. A deferred candidate re-enters the next
	// block's auction intact — never split.
	Deferred []int
	// SlotsUsed is the capacity the winners consume.
	SlotsUsed int
	// Revenue is the sum of the winners' bids.
	Revenue uint64
	// FIFORevenue is what the plain arrival-order assembly of the same
	// candidates would have collected — the baseline Revenue is
	// guaranteed to meet or beat.
	FIFORevenue uint64
}

// denser reports whether candidate a strictly out-ranks candidate b in
// the greedy order: higher bid-per-slot density first, earlier arrival
// on equal density. The density comparison a.Bid/a.Slots > b.Bid/b.Slots
// cross-multiplies (a.Bid·b.Slots > b.Bid·a.Slots) through 128-bit
// intermediates, so it is exact for the full uint64 bid range.
func denser(a, b Candidate) bool {
	ahi, alo := bits.Mul64(a.Bid, uint64(b.Slots))
	bhi, blo := bits.Mul64(b.Bid, uint64(a.Slots))
	if ahi != bhi {
		return ahi > bhi
	}
	if alo != blo {
		return alo > blo
	}
	return a.Seq < b.Seq
}

// SatAdd is a saturating uint64 add. Revenue sums saturate instead of
// wrapping: a block of near-max bids must compare as the richest plan,
// not overflow into the cheapest one (which would silently invert the
// FIFO revenue-floor guard).
func SatAdd(a, b uint64) uint64 {
	if a > ^uint64(0)-b {
		return ^uint64(0)
	}
	return a + b
}

// fill assembles a block plan by scanning candidates in the given order
// and including each whole when it fits the remaining capacity
// (capacity <= 0 means unlimited). Returns the winner indices in
// inclusion order, the slots they use, and their total bid (saturating).
func fill(capacity int, cands []Candidate, order []int) (winners []int, used int, revenue uint64) {
	for _, i := range order {
		c := cands[i]
		if c.Slots <= 0 {
			continue // malformed candidate: never includable
		}
		if capacity > 0 && used+c.Slots > capacity {
			continue // does not fit whole: deferred intact
		}
		winners = append(winners, i)
		used += c.Slots
		revenue = SatAdd(revenue, c.Bid)
	}
	return winners, used, revenue
}

// SelectWinners runs one block's combinatorial auction: greedy
// density-descending all-or-nothing selection with an arrival-sequence
// tie-break, guarded by the FIFO baseline — when plain arrival-order
// assembly of the same candidates would raise more revenue, the builder
// takes that plan instead (ties keep the greedy plan). Candidates that
// do not fit whole are deferred intact. The result is a pure function
// of (capacity, cands): identical across runs and platforms.
func SelectWinners(capacity int, cands []Candidate) Outcome {
	byDensity := make([]int, len(cands))
	bySeq := make([]int, len(cands))
	for i := range cands {
		byDensity[i], bySeq[i] = i, i
	}
	// Both orders break remaining ties by input index: sort.Slice is
	// unstable, and duplicate arrival seqs must not make the plan depend
	// on the sort's internals.
	sort.Slice(byDensity, func(x, y int) bool {
		i, j := byDensity[x], byDensity[y]
		if denser(cands[i], cands[j]) {
			return true
		}
		if denser(cands[j], cands[i]) {
			return false
		}
		return i < j
	})
	sort.Slice(bySeq, func(x, y int) bool {
		i, j := bySeq[x], bySeq[y]
		if cands[i].Seq != cands[j].Seq {
			return cands[i].Seq < cands[j].Seq
		}
		return i < j
	})

	winners, used, revenue := fill(capacity, cands, byDensity)
	fifoWinners, fifoUsed, fifoRevenue := fill(capacity, cands, bySeq)
	out := Outcome{Winners: winners, SlotsUsed: used, Revenue: revenue, FIFORevenue: fifoRevenue}
	if fifoRevenue > revenue {
		// Density greed stranded more value than it captured (a large
		// bundle lost to a swarm of dense small ones): the FIFO plan
		// pays better, so the builder takes it. Revenue therefore never
		// drops below the FIFO baseline for the same mempool.
		out.Winners, out.SlotsUsed, out.Revenue = fifoWinners, fifoUsed, fifoRevenue
	}

	won := make([]bool, len(cands))
	for _, i := range out.Winners {
		won[i] = true
	}
	for _, i := range bySeq {
		if !won[i] {
			out.Deferred = append(out.Deferred, i)
		}
	}
	return out
}
