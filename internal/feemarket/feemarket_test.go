package feemarket

import "testing"

func TestDefaultsDeriveTargetFromCapacity(t *testing.T) {
	m := New(Config{}, 8)
	if got := m.cfg.Target; got != 4 {
		t.Fatalf("target = %d, want half the block cap (4)", got)
	}
	if m.BaseFee() != 100 {
		t.Fatalf("initial base fee = %d, want 100", m.BaseFee())
	}
	uncapped := New(Config{}, 0)
	if got := uncapped.cfg.Target; got != 4 {
		t.Fatalf("uncapped target = %d, want default 4", got)
	}
	tiny := New(Config{}, 1)
	if got := tiny.cfg.Target; got != 1 {
		t.Fatalf("cap-1 target = %d, want 1 (never below one tx)", got)
	}
}

func TestBaseFeeRisesWithFullBlocksAndDecaysWhenIdle(t *testing.T) {
	m := New(Config{Initial: 100}, 8) // target 4
	start := m.BaseFee()
	for i := 0; i < 10; i++ {
		m.Seal(8) // consistently full blocks
	}
	high := m.BaseFee()
	if high <= start {
		t.Fatalf("base fee %d did not rise over %d under full blocks", high, start)
	}
	for i := 0; i < 200; i++ {
		m.Seal(0) // idle chain
	}
	if m.BaseFee() != 1 {
		t.Fatalf("base fee %d did not decay to the floor", m.BaseFee())
	}
	m.Seal(0)
	if m.BaseFee() != 1 {
		t.Fatal("base fee fell through the floor")
	}
	m.Seal(4) // exactly on target: no move
	if m.BaseFee() != 1 {
		t.Fatalf("on-target block moved the base fee to %d", m.BaseFee())
	}
}

func TestBaseFeeMoveBounded(t *testing.T) {
	m := New(Config{Initial: 800, AdjustQuotient: 8}, 8) // target 4
	m.Seal(8)                                            // 100% over target -> +1/8
	if got := m.BaseFee(); got != 900 {
		t.Fatalf("base fee after one full block = %d, want 900 (+12.5%%)", got)
	}
	m.Seal(0) // 100% under target -> -1/8
	if got := m.BaseFee(); got != 900-112 {
		t.Fatalf("base fee after one empty block = %d, want 788", got)
	}
}

func TestChargeAttributesByLabel(t *testing.T) {
	m := New(Config{Initial: 50}, 8)
	m.Charge("d0/escrow", 7)
	m.Charge("d0/commit", 3)
	m.Charge("d1/escrow", 0)
	tot := m.Totals()
	if tot.Burned != 150 || tot.Tipped != 10 {
		t.Fatalf("totals = %+v, want burned 150 tipped 10", tot)
	}
	if got := m.LabelTotals("d0/escrow"); got.Burned != 50 || got.Tipped != 7 {
		t.Fatalf("label totals = %+v", got)
	}
	if got := m.PrefixTotals("d0/"); got.Burned != 100 || got.Tipped != 10 {
		t.Fatalf("prefix totals = %+v, want burned 100 tipped 10", got)
	}
	if got := m.PrefixTotals("d1/"); got.Sum() != 50 {
		t.Fatalf("d1 prefix sum = %d, want 50", got.Sum())
	}
	if got := m.PrefixTotals("nope/"); got.Sum() != 0 {
		t.Fatalf("unknown prefix sum = %d, want 0", got.Sum())
	}
}

// TestMarketTrajectoryDeterministic: two markets driven by the same
// block sequence agree bit for bit at every step.
func TestMarketTrajectoryDeterministic(t *testing.T) {
	a := New(Config{Initial: 100}, 6)
	b := New(Config{Initial: 100}, 6)
	seq := []int{6, 6, 0, 3, 6, 1, 0, 0, 6, 6, 6, 2}
	for i, n := range seq {
		a.Charge("x", uint64(i))
		b.Charge("x", uint64(i))
		a.Seal(n)
		b.Seal(n)
		if a.BaseFee() != b.BaseFee() {
			t.Fatalf("step %d: base fees diverge (%d vs %d)", i, a.BaseFee(), b.BaseFee())
		}
	}
	if a.Totals() != b.Totals() {
		t.Fatalf("ledgers diverge: %+v vs %+v", a.Totals(), b.Totals())
	}
}

// LabelTotals returns the fees attributed to one exact label.
func (m *Market) LabelTotals(label string) Totals {
	if t := m.byLabel[label]; t != nil {
		return *t
	}
	return Totals{}
}
