// Package gas implements the Ethereum-inspired execution cost model that
// §7.1 of the paper uses for its analysis: gas costs are dominated by
// writes to long-lived storage (≈5000 gas each) and signature
// verifications (≈3000 gas each), with arithmetic and short-lived memory
// in the single digits and reads from long-lived storage in the double to
// triple digits.
//
// Contracts charge their meter explicitly through the chain execution
// environment, mirroring how the paper counts operations in Figure 4.
package gas

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Op identifies a meterable operation class.
type Op string

// Operation classes, mirroring the cost drivers named in §7.1.
const (
	OpWrite     Op = "write"     // write to long-lived storage
	OpRead      Op = "read"      // read from long-lived storage
	OpSigVerify Op = "sigverify" // signature verification
	OpArith     Op = "arith"     // arithmetic / short-lived memory
	OpEvent     Op = "event"     // emitting a log entry
	OpTxBase    Op = "txbase"    // fixed per-transaction overhead
)

// Schedule maps operation classes to their gas price.
type Schedule struct {
	Write     uint64
	Read      uint64
	SigVerify uint64
	Arith     uint64
	Event     uint64
	TxBase    uint64
}

// DefaultSchedule returns the schedule from §7.1: storage writes 5000,
// signature verifications 3000, storage reads in the hundreds, arithmetic
// in the single digits.
func DefaultSchedule() Schedule {
	return Schedule{
		Write:     5000,
		Read:      200,
		SigVerify: 3000,
		Arith:     5,
		Event:     375,
		TxBase:    21000,
	}
}

// Cost returns the price of a single operation of class op.
func (s Schedule) Cost(op Op) uint64 {
	switch op {
	case OpWrite:
		return s.Write
	case OpRead:
		return s.Read
	case OpSigVerify:
		return s.SigVerify
	case OpArith:
		return s.Arith
	case OpEvent:
		return s.Event
	case OpTxBase:
		return s.TxBase
	default:
		return 0
	}
}

// ops lists the operation classes in the order a usage record counts
// them.
var ops = [...]Op{OpWrite, OpRead, OpSigVerify, OpArith, OpEvent, OpTxBase}

// opIndex is op's position in ops, or -1 for an unknown class.
func opIndex(op Op) int {
	for i, o := range ops {
		if o == op {
			return i
		}
	}
	return -1
}

// usage is the gas used and the operations counted under one label, or
// in total. It is a flat value, so a map of them copies as one block.
type usage struct {
	used   uint64
	counts [len(ops)]uint64
}

func (u *usage) add(o usage) {
	u.used += o.used
	for i, n := range o.counts {
		u.counts[i] += n
	}
}

func (u usage) count(op Op) uint64 {
	if i := opIndex(op); i >= 0 {
		return u.counts[i]
	}
	return 0
}

// Meter accumulates gas usage, broken down by operation class and by
// caller-supplied label (the harness labels transactions with their deal
// phase so Figure 4's per-phase rows can be reproduced). Operations of a
// class outside ops cost nothing and are not counted.
type Meter struct {
	schedule Schedule
	total    usage            // this layer's; reads add the base's
	byLabel  map[string]usage // this layer's; nil until the first charge or merge
	base     *Meter           // read-only layer beneath (see Layered); nil for a plain meter
	changes  uint64           // charges and merges into this layer (see Union)
}

// NewMeter returns an empty meter using the given schedule.
func NewMeter(s Schedule) *Meter {
	m := &Meter{}
	m.Reset(s)
	return m
}

// Reset empties the meter, as NewMeter(s) builds it, keeping its label
// table's storage. It must not be called on a meter that a live Layered
// meter or Union still reads: what they read would change under them.
func (m *Meter) Reset(s Schedule) {
	clear(m.byLabel)
	*m = Meter{schedule: s, byLabel: m.byLabel}
}

// Layered returns an empty meter over base: it reads as base plus what is
// charged or merged into it, and never writes base, so layers can share it.
func Layered(base *Meter) *Meter { return &Meter{schedule: base.schedule, base: base} }

// sum is the meter's usage across its layers.
func (m *Meter) sum() (u usage) {
	for ; m != nil; m = m.base {
		u.add(m.total)
	}
	return u
}

// label is the usage recorded under l across the meter's layers.
func (m *Meter) label(l string) (u usage) {
	for ; m != nil; m = m.base {
		u.add(m.byLabel[l])
	}
	return u
}

// changeCount counts writes to every layer of m; it only ever grows.
func (m *Meter) changeCount() (n uint64) {
	for ; m != nil; m = m.base {
		n += m.changes
	}
	return n
}

// Charge records n operations of class op under label.
func (m *Meter) Charge(label string, op Op, n uint64) {
	m.changes++
	if m.byLabel == nil {
		m.byLabel = make(map[string]usage)
	}
	cost := m.schedule.Cost(op) * n
	lu := m.byLabel[label]
	lu.used += cost
	m.total.used += cost
	if i := opIndex(op); i >= 0 {
		lu.counts[i] += n
		m.total.counts[i] += n
	}
	m.byLabel[label] = lu
}

// Used returns the total gas consumed.
func (m *Meter) Used() uint64 { return m.sum().used }

// Count returns the number of operations of class op recorded.
func (m *Meter) Count(op Op) uint64 { return m.sum().count(op) }

// UsedByLabel returns the gas consumed under label.
func (m *Meter) UsedByLabel(label string) uint64 { return m.label(label).used }

// CountByLabel returns the number of op operations recorded under label.
func (m *Meter) CountByLabel(label string, op Op) uint64 {
	return m.label(label).count(op)
}

// Labels returns all labels seen, sorted.
func (m *Meter) Labels() []string {
	out := slices.Collect(maps.Keys(m.byLabel))
	if m.base != nil {
		out = append(out, m.base.Labels()...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Merge adds the contents of other, all its layers, into m's own layer.
// Useful for aggregating the meters of many chains into one global view
// (Figure 4 reports global costs across all m asset chains). Each label
// keeps the gas its own meter charged, so meters with different schedules
// merge exactly. Merging into an empty layer copies other's table whole.
func (m *Meter) Merge(other *Meter) {
	if other.base != nil {
		m.Merge(other.base)
	}
	m.changes++
	m.total.add(other.total)
	if len(m.byLabel) == 0 {
		m.byLabel = maps.Clone(other.byLabel)
		return
	}
	for l, ou := range other.byLabel {
		lu := m.byLabel[l]
		lu.add(ou)
		m.byLabel[l] = lu
	}
}

// Union is the merge of a fixed list of meters. It merges them into a new
// meter again only once one has been charged or merged into, so a merge
// it returned never changes; callers layer their charges over it (see
// Layered) and never write to it.
type Union struct {
	schedule Schedule
	parts    []*Meter
	changes  uint64 // the parts' summed change counts at the last merge
	merged   *Meter
}

// NewUnion returns the union of parts, merged under schedule s.
func NewUnion(s Schedule, parts ...*Meter) *Union { return &Union{schedule: s, parts: parts} }

// Meter returns the merge of the union's parts.
func (u *Union) Meter() *Meter {
	var changes uint64
	for _, p := range u.parts {
		changes += p.changeCount()
	}
	if u.merged == nil || changes != u.changes {
		u.merged, u.changes = NewMeter(u.schedule), changes
		for _, p := range u.parts {
			u.merged.Merge(p)
		}
	}
	return u.merged
}

// Snapshot returns an immutable summary of the meter, suitable for
// diffing before/after a protocol phase.
type Snapshot struct {
	Used   uint64
	Counts map[Op]uint64
}

// Snapshot captures current totals. Counts holds every class with a
// non-zero count.
func (m *Meter) Snapshot() Snapshot {
	total := m.sum()
	c := make(map[Op]uint64, len(ops))
	for i, n := range total.counts {
		if n > 0 {
			c[ops[i]] = n
		}
	}
	return Snapshot{Used: total.used, Counts: c}
}

// Sub returns the operation deltas between two snapshots (m - prev).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	c := make(map[Op]uint64, len(s.Counts))
	for op, n := range s.Counts {
		c[op] = n - prev.Counts[op]
	}
	return Snapshot{Used: s.Used - prev.Used, Counts: c}
}

// String renders the snapshot compactly, e.g. "gas=123 write=4 sigverify=2".
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gas=%d", s.Used)
	ops := make([]string, 0, len(s.Counts))
	for op := range s.Counts {
		ops = append(ops, string(op))
	}
	sort.Strings(ops)
	for _, op := range ops {
		if n := s.Counts[Op(op)]; n > 0 {
			fmt.Fprintf(&b, " %s=%d", op, n)
		}
	}
	return b.String()
}
