package feemarket

import (
	"testing"
)

// This file hardens the determinism guarantees the rest of the repo
// rests on with property/fuzz coverage of the fee market:
//
//   1. the base fee never moves by more than max(1, baseFee/quotient)
//      per block — the EIP-1559 ±1/8 bound — for *arbitrary* fullness
//      sequences, including blocks that overshoot twice the target;
//   2. the base fee never falls below the configured floor;
//   3. burned + tipped always equals the sum of per-inclusion charges,
//      and the per-label ledger partitions the total exactly.
//
// The fuzz targets carry a committed seed corpus (f.Add below plus
// testdata/fuzz), and TestBaseFeeInvariantTable replays the same
// invariant checks over fixed adversarial sequences so plain `go test`
// (the CI path) exercises them deterministically without -fuzz.

// checkSealStep drives one Seal and asserts the move invariants.
// Returns the new base fee.
func checkSealStep(t *testing.T, m *Market, included int) uint64 {
	t.Helper()
	before := m.BaseFee()
	m.Seal(included)
	after := m.BaseFee()
	quot := m.cfg.AdjustQuotient
	bound := before / quot
	if bound < 1 {
		bound = 1
	}
	var move uint64
	if after > before {
		move = after - before
	} else {
		move = before - after
	}
	// A decay that lands on the floor may be smaller than its computed
	// delta, never larger; the bound still applies.
	if move > bound {
		t.Fatalf("base fee moved %d -> %d (|Δ|=%d) past the ±max(1, fee/%d)=%d bound at fullness %d",
			before, after, move, quot, bound, included)
	}
	if after < m.cfg.Min {
		t.Fatalf("base fee %d fell below the floor %d", after, m.cfg.Min)
	}
	if included == m.cfg.Target && after != before {
		t.Fatalf("on-target block moved the base fee %d -> %d", before, after)
	}
	return after
}

// driveMarket replays a fullness/tip script against a fresh market,
// asserting the move bound, the floor, and exact fee conservation.
func driveMarket(t *testing.T, cfg Config, maxBlockTxs int, script []byte) {
	t.Helper()
	m := New(cfg, maxBlockTxs)
	labels := []string{"d0/escrow", "d0/commit", "d1/escrow", "d2/abort"}
	var wantBurned, wantTipped uint64
	perLabel := make(map[string]Totals)
	for i, b := range script {
		// Byte i encodes one block: low nibble is the fullness (may
		// exceed 2×target — the overshoot case), high nibble drives the
		// tips and label choice of the block's inclusions.
		included := int(b & 0x0f)
		for j := 0; j < included; j++ {
			label := labels[(int(b>>4)+j)%len(labels)]
			tip := uint64(b>>4) + uint64(j%3)
			// Conservation oracle: every inclusion charges exactly the
			// current base fee plus its tip.
			wantBurned += m.BaseFee()
			wantTipped += tip
			lt := perLabel[label]
			lt.Burned += m.BaseFee()
			lt.Tipped += tip
			perLabel[label] = lt
			m.Charge(label, tip)
		}
		checkSealStep(t, m, included)
		if i > 64 && m.BaseFee() == m.cfg.Min && included == 0 {
			// Long idle tails add no new information.
			break
		}
	}
	got := m.Totals()
	if got.Burned != wantBurned || got.Tipped != wantTipped {
		t.Fatalf("ledger totals %+v, want burned %d tipped %d (burned+tipped must equal charged)",
			got, wantBurned, wantTipped)
	}
	var labelSum Totals
	for l, want := range perLabel {
		lt := m.LabelTotals(l)
		if lt != want {
			t.Fatalf("label %s totals %+v, want %+v", l, lt, want)
		}
		labelSum.Add(lt)
	}
	if labelSum != got {
		t.Fatalf("per-label ledger %+v does not partition the total %+v", labelSum, got)
	}
	if n := len(m.History()); n > maxHistory {
		t.Fatalf("history grew to %d entries past the %d bound", n, maxHistory)
	}
	// Each fractional move is bounded by max(1/quotient, 1/fee) ≤ 1
	// (the one-unit minimum move dominates next to the floor), so the
	// realized mean can never leave [0, 1].
	if v := m.Volatility(32); v < 0 || v > 1 {
		t.Fatalf("realized volatility %v outside [0, 1]", v)
	}
}

// fuzzConfig decodes the fuzzed market parameters into a valid Config.
func fuzzConfig(initial, min uint64, target uint8, quot uint8) (Config, int) {
	cfg := Config{
		Initial:        initial%100000 + 1,
		Min:            min%100 + 1,
		Target:         int(target % 12), // 0 derives from capacity
		AdjustQuotient: uint64(quot%16) + 1,
	}
	if cfg.Initial < cfg.Min {
		cfg.Initial = cfg.Min
	}
	maxBlockTxs := int(target%3) * 8 // 0 (uncapped), 8, or 16
	return cfg, maxBlockTxs
}

// FuzzBaseFeeInvariants fuzzes arbitrary (config, fullness script)
// pairs through the market. The script's fullness nibbles run up to 15
// while targets run as low as 1, so overshoot far past 2×target — where
// the unclamped EIP-1559 formula would move more than fee/quotient — is
// squarely inside the searched space.
func FuzzBaseFeeInvariants(f *testing.F) {
	f.Add(uint64(100), uint64(1), uint8(0), uint8(7), []byte{0x18, 0x28, 0x00, 0xf4, 0x31})
	f.Add(uint64(800), uint64(1), uint8(4), uint8(7), []byte{0xff, 0xff, 0x00, 0x00, 0x0f, 0xf0})
	f.Add(uint64(7), uint64(3), uint8(1), uint8(7), []byte{0x0f, 0x0f, 0x0f, 0x00})
	f.Add(uint64(1), uint64(1), uint8(2), uint8(0), []byte{0x01, 0x10, 0x11})
	f.Add(uint64(99999), uint64(50), uint8(11), uint8(15), []byte{0xaf, 0x05, 0x50, 0xfa})
	f.Fuzz(func(t *testing.T, initial, min uint64, target, quot uint8, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		cfg, maxBlockTxs := fuzzConfig(initial, min, target, quot)
		driveMarket(t, cfg, maxBlockTxs, script)
	})
}

// TestBaseFeeInvariantTable is the deterministic CI fallback: the same
// invariants over fixed adversarial scripts, no -fuzz flag needed.
func TestBaseFeeInvariantTable(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		maxBlockTxs int
		script      []byte
	}{
		{"defaults-capped", Config{}, 8, []byte{0x18, 0x28, 0x38, 0x00, 0x11, 0xf8, 0x00, 0x48}},
		{"overshoot-small-target", Config{Target: 1}, 0, []byte{0x0f, 0x1f, 0x2f, 0x0f, 0x00, 0x0f}},
		{"uncapped-default-target", Config{}, 0, []byte{0x0f, 0x0f, 0x0f, 0x0f, 0x00, 0x00, 0x0f}},
		{"tiny-fee-floor", Config{Initial: 2, Min: 1}, 8, []byte{0x00, 0x00, 0x00, 0x18, 0x00, 0x00}},
		{"high-floor-decay", Config{Initial: 500, Min: 400}, 8, []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
		{"quotient-1", Config{AdjustQuotient: 1}, 8, []byte{0x1f, 0x00, 0x2f, 0x00}},
		{"sawtooth", Config{Initial: 1000}, 16, []byte{0x1f, 0x00, 0x1f, 0x00, 0x1f, 0x00, 0x1f, 0x00}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			driveMarket(t, tc.cfg, tc.maxBlockTxs, tc.script)
		})
	}
}

// TestVolatilityKnownTrajectory pins the realized-volatility computation
// to a hand-computed trajectory, including window clamping.
func TestVolatilityKnownTrajectory(t *testing.T) {
	m := New(Config{Initial: 800, AdjustQuotient: 8}, 8) // target 4
	if v := m.Volatility(8); v != 0 {
		t.Fatalf("volatility with no sealed blocks = %v, want 0", v)
	}
	m.Seal(8) // history [800], fee 900
	if v := m.Volatility(8); v != 0 {
		t.Fatalf("volatility with one sealed block = %v, want 0", v)
	}
	m.Seal(8) // history [800 900], fee 1012
	// One transition: |900-800|/800 = 0.125.
	if v := m.Volatility(8); v != 0.125 {
		t.Fatalf("volatility = %v, want 0.125", v)
	}
	m.Seal(4) // on target: history [800 900 1012], fee stays 1012
	m.Seal(4) // history [800 900 1012 1012]
	// Window 1 sees only the flat transition.
	if v := m.Volatility(1); v != 0 {
		t.Fatalf("window-1 volatility = %v, want 0", v)
	}
	// Window 100 >> history: mean of (0.125, 1012/900-1, 0).
	want := (0.125 + float64(1012-900)/900 + 0) / 3
	if v := m.Volatility(100); v != want {
		t.Fatalf("window-100 volatility = %v, want %v", v, want)
	}
	if m.sealed != 4 {
		t.Fatalf("sealed blocks = %d, want 4", m.sealed)
	}
	h := m.History()
	if len(h) != 4 || h[0] != 800 || h[1] != 900 || h[2] != 1012 || h[3] != 1012 {
		t.Fatalf("history = %v, want [800 900 1012 1012]", h)
	}
	h[0] = 7 // History must hand out a copy
	if m.History()[0] != 800 {
		t.Fatal("History exposed internal state")
	}
}

// TestHistoryBounded drives past maxHistory blocks and checks eviction.
func TestHistoryBounded(t *testing.T) {
	m := New(Config{Initial: 100}, 8)
	for i := 0; i < maxHistory+50; i++ {
		m.Seal(5) // slightly over target: fee creeps up
	}
	if n := len(m.History()); n != maxHistory {
		t.Fatalf("history holds %d entries, want exactly %d", n, maxHistory)
	}
	if m.sealed != maxHistory+50 {
		t.Fatalf("sealed count = %d, want %d", m.sealed, maxHistory+50)
	}
	h := m.History()
	if h[len(h)-1] != m.History()[len(h)-1] || h[0] >= h[len(h)-1] {
		t.Fatalf("history not oldest-first after eviction: first %d last %d", h[0], h[len(h)-1])
	}
}
