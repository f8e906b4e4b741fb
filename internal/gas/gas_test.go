package gas

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestDefaultScheduleMatchesPaper(t *testing.T) {
	s := DefaultSchedule()
	// §7.1: "writing to long-lived storage is (usually) 5000 gas, and each
	// signature verification is 3000 gas".
	if s.Write != 5000 {
		t.Fatalf("Write = %d, want 5000", s.Write)
	}
	if s.SigVerify != 3000 {
		t.Fatalf("SigVerify = %d, want 3000", s.SigVerify)
	}
	if s.Arith >= 10 {
		t.Fatalf("Arith = %d, want single digits", s.Arith)
	}
	if s.Read < 10 || s.Read > 999 {
		t.Fatalf("Read = %d, want double or triple digits", s.Read)
	}
}

func TestScheduleCost(t *testing.T) {
	s := DefaultSchedule()
	cases := []struct {
		op   Op
		want uint64
	}{
		{OpWrite, 5000},
		{OpRead, 200},
		{OpSigVerify, 3000},
		{OpArith, 5},
		{OpEvent, 375},
		{OpTxBase, 21000},
		{Op("bogus"), 0},
	}
	for _, c := range cases {
		if got := s.Cost(c.op); got != c.want {
			t.Errorf("Cost(%s) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestMeterChargeAccumulates(t *testing.T) {
	m := NewMeter(DefaultSchedule())
	m.Charge("escrow", OpWrite, 4)
	m.Charge("escrow", OpSigVerify, 1)
	m.Charge("commit", OpWrite, 1)
	wantUsed := uint64(4*5000 + 3000 + 5000)
	if m.Used() != wantUsed {
		t.Fatalf("Used() = %d, want %d", m.Used(), wantUsed)
	}
	if m.Count(OpWrite) != 5 {
		t.Fatalf("Count(write) = %d, want 5", m.Count(OpWrite))
	}
	if m.UsedByLabel("escrow") != 4*5000+3000 {
		t.Fatalf("UsedByLabel(escrow) = %d", m.UsedByLabel("escrow"))
	}
	if m.CountByLabel("escrow", OpWrite) != 4 {
		t.Fatalf("CountByLabel(escrow, write) = %d, want 4", m.CountByLabel("escrow", OpWrite))
	}
	if m.CountByLabel("commit", OpSigVerify) != 0 {
		t.Fatal("CountByLabel for unused op should be 0")
	}
}

func TestMeterLabelsSorted(t *testing.T) {
	m := NewMeter(DefaultSchedule())
	m.Charge("z", OpArith, 1)
	m.Charge("a", OpArith, 1)
	m.Charge("m", OpArith, 1)
	got := m.Labels()
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("Labels() = %v, want [a m z]", got)
	}
}

func TestMeterMerge(t *testing.T) {
	a := NewMeter(DefaultSchedule())
	b := NewMeter(DefaultSchedule())
	a.Charge("x", OpWrite, 2)
	b.Charge("x", OpWrite, 3)
	b.Charge("y", OpSigVerify, 1)
	a.Merge(b)
	if a.Count(OpWrite) != 5 {
		t.Fatalf("merged Count(write) = %d, want 5", a.Count(OpWrite))
	}
	if a.CountByLabel("x", OpWrite) != 5 {
		t.Fatalf("merged CountByLabel = %d, want 5", a.CountByLabel("x", OpWrite))
	}
	if a.UsedByLabel("y") != 3000 {
		t.Fatalf("merged UsedByLabel(y) = %d, want 3000", a.UsedByLabel("y"))
	}
}

func TestSnapshotSub(t *testing.T) {
	m := NewMeter(DefaultSchedule())
	m.Charge("x", OpWrite, 2)
	before := m.Snapshot()
	m.Charge("x", OpWrite, 3)
	m.Charge("x", OpSigVerify, 1)
	delta := m.Snapshot().Sub(before)
	if delta.Counts[OpWrite] != 3 {
		t.Fatalf("delta write = %d, want 3", delta.Counts[OpWrite])
	}
	if delta.Counts[OpSigVerify] != 1 {
		t.Fatalf("delta sigverify = %d, want 1", delta.Counts[OpSigVerify])
	}
	if delta.Used != 3*5000+3000 {
		t.Fatalf("delta used = %d", delta.Used)
	}
}

func TestSnapshotImmutable(t *testing.T) {
	m := NewMeter(DefaultSchedule())
	m.Charge("x", OpWrite, 1)
	snap := m.Snapshot()
	m.Charge("x", OpWrite, 9)
	if snap.Counts[OpWrite] != 1 {
		t.Fatal("snapshot mutated by later charges")
	}
}

func TestSnapshotString(t *testing.T) {
	m := NewMeter(DefaultSchedule())
	m.Charge("x", OpWrite, 2)
	m.Charge("x", OpSigVerify, 1)
	got := m.Snapshot().String()
	want := "gas=13000 sigverify=1 write=2"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestQuickMeterTotalEqualsSumOfLabels(t *testing.T) {
	prop := func(charges []struct {
		Label uint8
		Op    uint8
		N     uint16
	}) bool {
		m := NewMeter(DefaultSchedule())
		ops := []Op{OpWrite, OpRead, OpSigVerify, OpArith, OpEvent, OpTxBase}
		labels := []string{"a", "b", "c"}
		for _, c := range charges {
			m.Charge(labels[int(c.Label)%3], ops[int(c.Op)%6], uint64(c.N))
		}
		var sum uint64
		for _, l := range m.Labels() {
			sum += m.UsedByLabel(l)
		}
		return sum == m.Used()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// refMeter is a nested-map meter: one map per total and per label, and
// an inner map of counts for every label. It is the oracle the flat
// layout must agree with.
type refMeter struct {
	schedule Schedule
	used     uint64
	counts   map[Op]uint64
	byLabel  map[string]uint64
	countsBy map[string]map[Op]uint64
}

func newRefMeter(s Schedule) *refMeter {
	return &refMeter{
		schedule: s,
		counts:   make(map[Op]uint64),
		byLabel:  make(map[string]uint64),
		countsBy: make(map[string]map[Op]uint64),
	}
}

func (m *refMeter) Charge(label string, op Op, n uint64) {
	cost := m.schedule.Cost(op) * n
	m.used += cost
	m.counts[op] += n
	m.byLabel[label] += cost
	lc, ok := m.countsBy[label]
	if !ok {
		lc = make(map[Op]uint64)
		m.countsBy[label] = lc
	}
	lc[op] += n
}

func (m *refMeter) Merge(other *refMeter) {
	m.used += other.used
	for op, n := range other.counts {
		m.counts[op] += n
	}
	for l, g := range other.byLabel {
		m.byLabel[l] += g
	}
	for l, lc := range other.countsBy {
		dst, ok := m.countsBy[l]
		if !ok {
			dst = make(map[Op]uint64)
			m.countsBy[l] = dst
		}
		for op, n := range lc {
			dst[op] += n
		}
	}
}

// agree reports the first accessor on which m and ref differ, or "".
func agree(m *Meter, ref *refMeter) string {
	if m.Used() != ref.used {
		return fmt.Sprintf("Used %d, reference %d", m.Used(), ref.used)
	}
	labels := slices.Sorted(maps.Keys(ref.byLabel))
	if got := m.Labels(); !slices.Equal(got, labels) {
		return fmt.Sprintf("Labels %v, reference %v", got, labels)
	}
	probe := append(labels, "never-charged")
	for _, op := range ops {
		if m.Count(op) != ref.counts[op] {
			return fmt.Sprintf("Count(%s) %d, reference %d", op, m.Count(op), ref.counts[op])
		}
		for _, l := range probe {
			if m.CountByLabel(l, op) != ref.countsBy[l][op] {
				return fmt.Sprintf("CountByLabel(%s, %s) %d, reference %d", l, op, m.CountByLabel(l, op), ref.countsBy[l][op])
			}
		}
	}
	for _, l := range probe {
		if m.UsedByLabel(l) != ref.byLabel[l] {
			return fmt.Sprintf("UsedByLabel(%s) %d, reference %d", l, m.UsedByLabel(l), ref.byLabel[l])
		}
	}
	// The reference keeps a class it was charged zero operations of; a
	// snapshot lists the classes that were counted.
	want := Snapshot{Used: ref.used, Counts: make(map[Op]uint64)}
	for op, n := range ref.counts {
		if n > 0 {
			want.Counts[op] = n
		}
	}
	if got := m.Snapshot(); !reflect.DeepEqual(got, want) || got.String() != want.String() {
		return fmt.Sprintf("Snapshot %v, reference %v", got, want)
	}
	return ""
}

// TestMeterMatchesNestedMapReference drives the flat meter and the
// reference through the same random Charge and Merge sequences — over
// meters with different schedules, merges into fresh and into populated
// meters, and zero-operation charges — and checks every accessor after
// every step.
func TestMeterMatchesNestedMapReference(t *testing.T) {
	cheap := Schedule{Write: 7, Read: 3, SigVerify: 11, Arith: 1, Event: 2, TxBase: 13}
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		schedules := []Schedule{DefaultSchedule(), cheap, DefaultSchedule()}
		ms := make([]*Meter, len(schedules))
		refs := make([]*refMeter, len(schedules))
		for i, s := range schedules {
			ms[i], refs[i] = NewMeter(s), newRefMeter(s)
		}
		for step := 0; step < 40; step++ {
			i := rng.IntN(len(ms))
			switch rng.IntN(4) {
			case 0: // merge into a fresh meter, as a Union starts
				ms[i], refs[i] = NewMeter(schedules[i]), newRefMeter(schedules[i])
				fallthrough
			case 1:
				j := rng.IntN(len(ms))
				if j == i {
					continue
				}
				ms[i].Merge(ms[j])
				refs[i].Merge(refs[j])
			default:
				label := fmt.Sprintf("deal%d/phase%d", rng.IntN(6), rng.IntN(3))
				op, n := ops[rng.IntN(len(ops))], uint64(rng.IntN(4))
				ms[i].Charge(label, op, n)
				refs[i].Charge(label, op, n)
			}
			for k := range ms {
				if diff := agree(ms[k], refs[k]); diff != "" {
					t.Fatalf("trial %d step %d, meter %d: %s", trial, step, k, diff)
				}
			}
		}
	}
}

var meterSink *Meter

// TestMergeIntoEmptyCopiesTableOnce: merging a 300-label meter into a
// fresh one — what a Union does per chain set of a shared substrate —
// costs the meter and one copy of the label table, not an inner map per
// label.
func TestMergeIntoEmptyCopiesTableOnce(t *testing.T) {
	src, ref := NewMeter(DefaultSchedule()), newRefMeter(DefaultSchedule())
	for i := 0; i < 300; i++ {
		label := fmt.Sprintf("deal%d/escrow", i)
		src.Charge(label, OpSigVerify, 2)
		ref.Charge(label, OpSigVerify, 2)
	}
	merge := testing.AllocsPerRun(20, func() {
		meterSink = NewMeter(DefaultSchedule())
		meterSink.Merge(src)
	})
	table := testing.AllocsPerRun(20, func() { meterSink.byLabel = maps.Clone(src.byLabel) })
	if merge > table+1 {
		t.Fatalf("a 300-label Merge into an empty meter allocates %v times, want ≤ %v (the meter and one table copy)",
			merge, table+1)
	}
	t.Logf("300-label merge into an empty meter: %v allocations (%v copying the table)", merge, table)
	if diff := agree(meterSink, ref); diff != "" {
		t.Fatal(diff)
	}
}

// TestLayeredMeterMatchesReference drives layered meters over a shared
// base, and a plain meter, through random charges and merges, checking
// every accessor against a nested-map reference that holds the base's
// usage plus the meter's own. Merges run in both directions — a layered
// meter into an empty and into a populated meter, and anything into a
// layered one — and labels land in both layers. The base is never
// written.
func TestLayeredMeterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	randomCharge := func(m *Meter, ref *refMeter) {
		label := fmt.Sprintf("deal%d/phase%d", rng.IntN(6), rng.IntN(3))
		op, n := ops[rng.IntN(len(ops))], uint64(rng.IntN(4))
		m.Charge(label, op, n)
		ref.Charge(label, op, n)
	}
	fresh := func(base *Meter, baseRef *refMeter, layered bool) (*Meter, *refMeter) {
		ref := newRefMeter(DefaultSchedule())
		if !layered {
			return NewMeter(DefaultSchedule()), ref
		}
		ref.Merge(baseRef)
		return Layered(base), ref
	}
	covered := make(map[string]int)
	for trial := 0; trial < 200; trial++ {
		base, baseRef := NewMeter(DefaultSchedule()), newRefMeter(DefaultSchedule())
		for i := rng.IntN(24); i > 0; i-- {
			randomCharge(base, baseRef)
		}
		ms := make([]*Meter, 3)
		refs := make([]*refMeter, 3)
		for i := range ms {
			ms[i], refs[i] = fresh(base, baseRef, i < 2)
		}
		for step := 0; step < 40; step++ {
			i, j := rng.IntN(len(ms)), rng.IntN(len(ms))
			switch rng.IntN(4) {
			case 0: // merge into an empty meter, layered or plain
				ms[i], refs[i] = fresh(base, baseRef, rng.IntN(2) == 0)
				fallthrough
			case 1:
				if i == j {
					continue
				}
				if ms[j].base != nil {
					covered[fmt.Sprintf("layered into empty=%v layered=%v", len(ms[i].byLabel) == 0, ms[i].base != nil)]++
				}
				ms[i].Merge(ms[j])
				refs[i].Merge(refs[j])
			default:
				randomCharge(ms[i], refs[i])
			}
			for k := range ms {
				if diff := agree(ms[k], refs[k]); diff != "" {
					t.Fatalf("trial %d step %d, meter %d: %s", trial, step, k, diff)
				}
			}
		}
		if diff := agree(base, baseRef); diff != "" {
			t.Fatalf("trial %d: the base was written: %s", trial, diff)
		}
	}
	for _, into := range []string{"empty=true layered=false", "empty=false layered=false", "empty=true layered=true", "empty=false layered=true"} {
		if covered["layered into "+into] == 0 {
			t.Fatalf("no layered meter was merged into a meter with %s: %v", into, covered)
		}
	}
}

// TestLayeredAllocatesOnce: a layered meter is one allocation, however
// large its base.
func TestLayeredAllocatesOnce(t *testing.T) {
	base := NewMeter(DefaultSchedule())
	for i := 0; i < 300; i++ {
		base.Charge(fmt.Sprintf("deal%d/escrow", i), OpSigVerify, 2)
	}
	if n := testing.AllocsPerRun(100, func() { meterSink = Layered(base) }); n != 1 {
		t.Fatalf("Layered allocates %v times, want 1", n)
	}
}

// TestUnionMergesAgainOnlyAfterAChange: a union hands out one merge until
// a part is charged or merged into — directly, or beneath a layer — and a
// merge it handed out never changes afterwards.
func TestUnionMergesAgainOnlyAfterAChange(t *testing.T) {
	ms := []*Meter{NewMeter(DefaultSchedule()), NewMeter(DefaultSchedule())}
	refs := []*refMeter{newRefMeter(DefaultSchedule()), newRefMeter(DefaultSchedule())}
	union := func() *refMeter {
		u := newRefMeter(DefaultSchedule())
		u.Merge(refs[0])
		u.Merge(refs[1])
		return u
	}
	ms[0].Charge("x", OpWrite, 2)
	refs[0].Charge("x", OpWrite, 2)
	u := NewUnion(DefaultSchedule(), ms...)
	first, firstRef := u.Meter(), union()
	if u.Meter() != first {
		t.Fatal("an unchanged union merged again")
	}
	// Each change moves the reads; the zero-count charge moves only Labels.
	for _, change := range []struct {
		name string
		do   func(*Meter, *refMeter)
	}{
		{"charge", func(m *Meter, r *refMeter) { m.Charge("y", OpRead, 1); r.Charge("y", OpRead, 1) }},
		{"zero-count charge", func(m *Meter, r *refMeter) { m.Charge("z", OpWrite, 0); r.Charge("z", OpWrite, 0) }},
		{"merge", func(m *Meter, r *refMeter) { m.Merge(ms[0]); r.Merge(refs[0]) }},
	} {
		before := u.Meter()
		change.do(ms[1], refs[1])
		after := u.Meter()
		if after == before {
			t.Fatalf("%s: the union kept its stale merge", change.name)
		}
		if diff := agree(after, union()); diff != "" {
			t.Fatalf("%s: %s", change.name, diff)
		}
	}
	if diff := agree(first, firstRef); diff != "" {
		t.Fatalf("a merge handed out earlier changed: %s", diff)
	}
	u = NewUnion(DefaultSchedule(), Layered(ms[1]))
	before := u.Meter()
	ms[1].Charge("w", OpArith, 1)
	if u.Meter() == before {
		t.Fatal("a change beneath a layered part went unnoticed")
	}
}
