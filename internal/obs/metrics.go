package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric kinds, as they appear in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotonically increasing count. Methods on a nil counter
// are no-ops, so call sites never guard on whether metrics are enabled.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.n += d
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge is a sampled level with a high-water mark — e.g. mempool depth,
// where the peak is the congestion signal worth keeping. Methods on a
// nil gauge are no-ops.
type Gauge struct {
	v, hi int64
}

// Set records the current level, raising the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hi {
		g.hi = v
	}
}

// Value returns the last level set (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram distributes observations over fixed buckets. Bounds are
// upper edges (inclusive), ascending; observations above the last bound
// land in the overflow count. Fixed buckets keep snapshots flat and
// mergeable: two histograms with the same bounds merge by bucket-wise
// addition, so aggregation order can never reach the snapshot.
type Histogram struct {
	bounds   []float64
	counts   []uint64
	overflow uint64
	count    uint64
	sum      float64
}

// Observe folds one sample into the histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.overflow++
}

// Registry holds named instruments. A registry belongs to one
// simulation (world or arena) at a time and is merged into the
// sweep-level registry in fold order; every merge operation is
// commutative (sum, max), so the merged snapshot is identical for any
// worker count. The zero value of *Registry (nil) disables everything:
// instrument lookups return nil instruments whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing buckets
// regardless of the bounds argument). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)),
		}
		r.hists[name] = h
	}
	return h
}

// Merge folds another registry into this one: counters and histogram
// buckets add, gauge levels and high-water marks take the maximum.
// Safe for concurrent use; because every operation is commutative, the
// merged state is independent of merge order.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range o.counters {
		rc := r.counters[name]
		if rc == nil {
			rc = &Counter{}
			r.counters[name] = rc
		}
		rc.n += c.n
	}
	for name, g := range o.gauges {
		rg := r.gauges[name]
		if rg == nil {
			rg = &Gauge{}
			r.gauges[name] = rg
		}
		if g.v > rg.v {
			rg.v = g.v
		}
		if g.hi > rg.hi {
			rg.hi = g.hi
		}
	}
	for name, h := range o.hists {
		rh := r.hists[name]
		if rh == nil {
			rh = &Histogram{
				bounds: append([]float64(nil), h.bounds...),
				counts: make([]uint64, len(h.counts)),
			}
			r.hists[name] = rh
		}
		for i := range h.counts {
			if i < len(rh.counts) {
				rh.counts[i] += h.counts[i]
			}
		}
		rh.overflow += h.overflow
		rh.count += h.count
		rh.sum += h.sum
	}
}

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below the upper edge (and above the previous one).
type Bucket struct {
	LE float64 `json:"le"`
	N  uint64  `json:"n"`
}

// Metric is one instrument's flat snapshot row. Exactly one of the
// kind-specific field groups is populated; the struct stays flat so the
// same shape serializes to JSON and CSV without restructuring.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Count is the counter value, or the histogram observation count.
	Count uint64 `json:"count,omitempty"`
	// Value / High are the gauge level and high-water mark.
	Value int64 `json:"value,omitempty"`
	High  int64 `json:"high,omitempty"`
	// Sum, Buckets and Overflow describe a histogram: total of all
	// observations, per-bucket counts, and observations above the last
	// bucket edge.
	Sum      float64  `json:"sum,omitempty"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow uint64   `json:"overflow,omitempty"`
}

// Snapshot is a registry's flat, ordered dump: one row per instrument,
// sorted by (name, kind), so equal registries snapshot to equal bytes.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot dumps the registry. Safe for concurrent use; the result is
// sorted, so two registries holding the same state produce identical
// snapshots no matter how they were built.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindCounter, Count: c.n})
	}
	for name, g := range r.gauges {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindGauge, Value: g.v, High: g.hi})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Kind: KindHistogram, Count: h.count, Sum: h.sum, Overflow: h.overflow}
		for i, b := range h.bounds {
			m.Buckets = append(m.Buckets, Bucket{LE: b, N: h.counts[i]})
		}
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool {
		if s.Metrics[i].Name != s.Metrics[j].Name {
			return s.Metrics[i].Name < s.Metrics[j].Name
		}
		return s.Metrics[i].Kind < s.Metrics[j].Kind
	})
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV renders the snapshot as CSV, one row per instrument, with
// histogram buckets flattened into a single `le=N:count;...` column.
func (s Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "kind", "count", "value", "high", "sum", "overflow", "buckets"}); err != nil {
		return err
	}
	for _, m := range s.Metrics {
		var buckets strings.Builder
		for i, b := range m.Buckets {
			if i > 0 {
				buckets.WriteByte(';')
			}
			fmt.Fprintf(&buckets, "le=%g:%d", b.LE, b.N)
		}
		row := []string{
			m.Name, m.Kind,
			strconv.FormatUint(m.Count, 10),
			strconv.FormatInt(m.Value, 10),
			strconv.FormatInt(m.High, 10),
			strconv.FormatFloat(m.Sum, 'g', -1, 64),
			strconv.FormatUint(m.Overflow, 10),
			buckets.String(),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TickBuckets is the shared bucket ladder for sim-time durations
// (queue delays, block intervals): powers of two up to ~16k ticks.
// One ladder everywhere keeps cross-package histograms mergeable.
func TickBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}
}
