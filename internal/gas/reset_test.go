package gas

import (
	"reflect"
	"testing"
)

// chargeScript charges a meter a fixed mix of operations under labels.
func chargeScript(m *Meter, labels ...string) {
	for i, l := range labels {
		m.Charge(l, OpWrite, uint64(i+1))
		m.Charge(l, OpSigVerify, 2)
		m.Charge(l+"/x", OpEvent, 1)
	}
}

// TestResetEqualsFresh charges a meter, resets it under another schedule
// and charges it again: it must equal a new meter charged alike, label by
// label and operation by operation, and so must a merge of it.
func TestResetEqualsFresh(t *testing.T) {
	m := NewMeter(DefaultSchedule())
	chargeScript(m, "escrow", "commit", "stale")
	cheap := Schedule{Write: 7, SigVerify: 3, Event: 1}
	m.Reset(cheap)
	chargeScript(m, "commit", "transfer")
	fresh := NewMeter(cheap)
	chargeScript(fresh, "commit", "transfer")
	if !reflect.DeepEqual(m, fresh) {
		t.Fatalf("meter after a reset %+v, fresh %+v", m, fresh)
	}
	if !reflect.DeepEqual(m.Snapshot(), fresh.Snapshot()) || !reflect.DeepEqual(m.Labels(), fresh.Labels()) {
		t.Fatalf("snapshot or labels differ: %v / %v", m.Snapshot(), fresh.Snapshot())
	}
	merged, freshMerged := NewMeter(cheap), NewMeter(cheap)
	merged.Merge(m)
	freshMerged.Merge(fresh)
	if !reflect.DeepEqual(merged, freshMerged) {
		t.Fatalf("merge of a reset meter %+v, of a fresh one %+v", merged, freshMerged)
	}
}
