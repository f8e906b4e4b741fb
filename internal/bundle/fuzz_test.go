package bundle

import (
	"testing"
)

// This file fuzzes the auction's safety contract:
//
//  1. winners always fit within capacity;
//  2. inclusion is all-or-nothing — every candidate is either a winner
//     or deferred, never both, never split, and the winners' slot
//     accounting is exact;
//  3. deferred candidates re-enter the next block intact: re-running
//     the auction over the deferred set alone never changes a deferred
//     candidate and eventually drains every includable one;
//  4. auction revenue never drops below the FIFO baseline's tip take
//     for the same mempool.
//
// FuzzWinnerDetermination carries a committed seed corpus (f.Add below
// plus testdata/fuzz), and TestWinnerDeterminationTable replays the
// same checks over fixed adversarial candidate sets so plain `go test`
// (the CI path) exercises them without -fuzz.

// decodeCandidates turns a fuzzed byte script into a candidate set.
// Each 3-byte group is one candidate: slots from the low nibble of the
// first byte (1..16, with an occasional zero-slot malformed candidate
// from the high bit), a bid stretched across the remaining bits so
// huge bids (overflow territory for naive density division) are in the
// searched space, and Seq = arrival order with occasional duplicates.
func decodeCandidates(data []byte) []Candidate {
	var cands []Candidate
	for i := 0; i+2 < len(data) && len(cands) < 256; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		slots := int(b0&0x0f) + 1
		if b0&0x80 != 0 && b1&0x80 != 0 {
			slots = 0 // malformed: the auction must never include it
		}
		bid := uint64(b1) * uint64(b2)
		if b0&0x40 != 0 {
			bid = (bid + 1) << (b2 % 56) // reach the top of the uint64 range
		}
		seq := uint64(len(cands))
		if b2&0x01 != 0 && len(cands) > 0 {
			seq = cands[len(cands)-1].Seq // duplicate arrival seq
		}
		cands = append(cands, Candidate{Slots: slots, Bid: bid, Seq: seq})
	}
	return cands
}

// checkAuction runs one auction and asserts every invariant, returning
// the outcome for round-tripping.
func checkAuction(t *testing.T, capacity int, cands []Candidate) Outcome {
	t.Helper()
	out := SelectWinners(capacity, cands)

	// All-or-nothing partition: each index appears exactly once across
	// winners and deferred (zero-slot malformed candidates may only be
	// deferred).
	seen := make([]int, len(cands))
	for _, i := range out.Winners {
		if i < 0 || i >= len(cands) {
			t.Fatalf("winner index %d outside candidate set of %d", i, len(cands))
		}
		seen[i]++
		if cands[i].Slots <= 0 {
			t.Fatalf("zero-slot candidate %d won", i)
		}
	}
	for _, i := range out.Deferred {
		if i < 0 || i >= len(cands) {
			t.Fatalf("deferred index %d outside candidate set of %d", i, len(cands))
		}
		seen[i]++
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("candidate %d appears %d times across winners+deferred (partial inclusion or loss)", i, n)
		}
	}

	// Capacity and accounting are exact (revenue saturating, like the
	// implementation: near-max bids must not wrap the comparison).
	var used int
	var revenue uint64
	for _, i := range out.Winners {
		used += cands[i].Slots
		revenue = SatAdd(revenue, cands[i].Bid)
	}
	if used != out.SlotsUsed {
		t.Fatalf("SlotsUsed %d, winners actually occupy %d", out.SlotsUsed, used)
	}
	if revenue != out.Revenue {
		t.Fatalf("Revenue %d, winners actually bid %d", out.Revenue, revenue)
	}
	if capacity > 0 && used > capacity {
		t.Fatalf("winners occupy %d slots over capacity %d", used, capacity)
	}

	// Revenue floor: never below the FIFO baseline's take for the same
	// mempool, recomputed independently of the implementation's own
	// FIFORevenue field.
	var fifoUsed int
	var fifoRevenue uint64
	order := make([]int, 0, len(cands))
	for i := range cands {
		order = append(order, i)
	}
	// Arrival order is Seq ascending with input order breaking duplicate
	// seqs — the same total order fill sees via the stable index sort.
	for x := 1; x < len(order); x++ {
		for y := x; y > 0 && cands[order[y]].Seq < cands[order[y-1]].Seq; y-- {
			order[y], order[y-1] = order[y-1], order[y]
		}
	}
	for _, i := range order {
		c := cands[i]
		if c.Slots <= 0 {
			continue
		}
		if capacity > 0 && fifoUsed+c.Slots > capacity {
			continue
		}
		fifoUsed += c.Slots
		fifoRevenue = SatAdd(fifoRevenue, c.Bid)
	}
	if out.FIFORevenue != fifoRevenue {
		t.Fatalf("FIFORevenue %d, independent baseline %d", out.FIFORevenue, fifoRevenue)
	}
	if out.Revenue < fifoRevenue {
		t.Fatalf("auction revenue %d below the FIFO baseline %d for the same mempool", out.Revenue, fifoRevenue)
	}
	return out
}

// checkDeferralRounds re-enters deferred candidates intact into
// follow-up blocks until no auction makes progress: every includable
// candidate must eventually win, each time unchanged from its original.
func checkDeferralRounds(t *testing.T, capacity int, cands []Candidate) {
	t.Helper()
	pending := append([]Candidate(nil), cands...)
	for round := 0; len(pending) > 0; round++ {
		if round > len(cands)+1 {
			t.Fatalf("auction made no progress after %d rounds with %d pending", round, len(pending))
		}
		out := checkAuction(t, capacity, pending)
		next := make([]Candidate, 0, len(out.Deferred))
		for _, i := range out.Deferred {
			next = append(next, pending[i]) // re-enters intact, field for field
		}
		if len(out.Winners) == 0 {
			// Only candidates that can never fit may remain: zero slots,
			// or wider than the whole block.
			for _, c := range next {
				if c.Slots > 0 && (capacity <= 0 || c.Slots <= capacity) {
					t.Fatalf("includable candidate %+v starved with an empty block", c)
				}
			}
			return
		}
		pending = next
	}
}

// FuzzWinnerDetermination fuzzes arbitrary (capacity, candidate set)
// pairs through the auction and its deferral rounds.
func FuzzWinnerDetermination(f *testing.F) {
	f.Add(8, []byte{0x02, 0x10, 0x20, 0x01, 0x40, 0x03, 0x04, 0x01, 0x09})
	f.Add(4, []byte{0x03, 0xff, 0x01, 0x00, 0x02, 0x05, 0x02, 0x02, 0x05})
	f.Add(0, []byte{0x45, 0xff, 0xff, 0x01, 0x01, 0x01})
	f.Add(1, []byte{0x8f, 0x80, 0x07, 0x00, 0x10, 0x11, 0x02, 0x20, 0x21})
	f.Add(6, []byte{0x42, 0x81, 0x3f, 0x03, 0x7f, 0x02, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, capacity int, data []byte) {
		if capacity < -8 || capacity > 1<<20 {
			capacity = int(uint(capacity) % (1 << 20))
		}
		if len(data) > 768 {
			data = data[:768]
		}
		cands := decodeCandidates(data)
		checkAuction(t, capacity, cands)
		checkDeferralRounds(t, capacity, cands)
	})
}

// TestWinnerDeterminationTable is the deterministic CI fallback: the
// same invariants over hand-built adversarial candidate sets.
func TestWinnerDeterminationTable(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		cands    []Candidate
	}{
		{"empty", 8, nil},
		{"uncapped", 0, []Candidate{
			{Slots: 3, Bid: 9, Seq: 0}, {Slots: 1, Bid: 1, Seq: 1},
		}},
		{"fifo-beats-greedy", 4, []Candidate{
			// Density greed picks the small dense pair (revenue 3) and
			// strands the big bundle; FIFO takes the bundle (revenue 5).
			{Slots: 4, Bid: 5, Seq: 0},
			{Slots: 1, Bid: 2, Seq: 1},
			{Slots: 3, Bid: 1, Seq: 2},
		}},
		{"greedy-beats-fifo", 4, []Candidate{
			{Slots: 4, Bid: 1, Seq: 0},
			{Slots: 4, Bid: 40, Seq: 1},
		}},
		{"equal-density-fifo-ties", 8, []Candidate{
			{Slots: 2, Bid: 10, Seq: 3},
			{Slots: 4, Bid: 20, Seq: 1},
			{Slots: 2, Bid: 10, Seq: 2},
		}},
		{"wider-than-block", 4, []Candidate{
			{Slots: 9, Bid: 1000, Seq: 0},
			{Slots: 1, Bid: 1, Seq: 1},
		}},
		{"zero-slot-malformed", 4, []Candidate{
			{Slots: 0, Bid: 999, Seq: 0},
			{Slots: 2, Bid: 4, Seq: 1},
		}},
		{"huge-bids-no-overflow", 8, []Candidate{
			{Slots: 7, Bid: ^uint64(0), Seq: 0},
			{Slots: 2, Bid: ^uint64(0) - 1, Seq: 1},
			{Slots: 1, Bid: ^uint64(0), Seq: 2},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAuction(t, tc.capacity, tc.cands)
			checkDeferralRounds(t, tc.capacity, tc.cands)
		})
	}
}

// TestGreedyOrderPinned pins the selection order itself on a known set:
// density descending, arrival-seq tie-break, all-or-nothing skip.
func TestGreedyOrderPinned(t *testing.T) {
	cands := []Candidate{
		{Slots: 2, Bid: 8, Seq: 0},  // density 4
		{Slots: 3, Bid: 15, Seq: 1}, // density 5: first
		{Slots: 2, Bid: 8, Seq: 2},  // density 4, later arrival
		{Slots: 1, Bid: 3, Seq: 3},  // loose tx, density 3
	}
	out := SelectWinners(6, cands)
	want := []int{1, 0, 3} // 1, then 0 (earlier seq beats 2), 2 no longer fits, the loose 3 fills
	if len(out.Winners) != len(want) {
		t.Fatalf("winners %v, want %v", out.Winners, want)
	}
	for i := range want {
		if out.Winners[i] != want[i] {
			t.Fatalf("winners %v, want %v", out.Winners, want)
		}
	}
	if len(out.Deferred) != 1 || out.Deferred[0] != 2 {
		t.Fatalf("deferred %v, want [2]", out.Deferred)
	}
	if out.SlotsUsed != 6 || out.Revenue != 26 {
		t.Fatalf("slots %d revenue %d, want 6 and 26", out.SlotsUsed, out.Revenue)
	}
}
