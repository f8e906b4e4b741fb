package fleet

import (
	"fmt"
	"io"
	"sort"

	"xdeal/internal/obs"
	"xdeal/internal/trace"
)

// BucketShare is one bucket's share-of-decision-latency distribution
// within a (protocol, mix) slice. Shares are per-deal fractions in
// [0, 1]; mean is exact, p50/p99 are sketch estimates.
type BucketShare struct {
	Bucket    string  `json:"bucket"`
	MeanShare float64 `json:"mean_share"`
	P50Share  float64 `json:"p50_share"`
	P99Share  float64 `json:"p99_share"`
}

// CritPathSlice is the attribution table for one protocol × adversary
// mix: where that population's decision latency actually went.
type CritPathSlice struct {
	Protocol string `json:"protocol"`
	// Mix is "compliant" (no deviating party in the deal) or
	// "adversarial" (at least one).
	Mix     string        `json:"mix"`
	Deals   int           `json:"deals"`
	Buckets []BucketShare `json:"buckets"`
}

// CriticalPathBlock is the always-on report block: per-bucket shares of
// decision latency, sliced by protocol and adversary mix. Like every
// block it is a pure fold of the records in index order, so it is
// byte-identical across worker counts and across replays.
type CriticalPathBlock struct {
	Slices []CritPathSlice `json:"slices"`
}

// critAgg folds one (protocol, mix) slice in constant memory: one
// share sketch per bucket plus exact mean accumulators.
type critAgg struct {
	deals    int
	sketches [5]Sketch
	sums     [5]float64
}

func (c *critAgg) add(a *trace.Attribution) {
	c.deals++
	for i, b := range trace.Buckets {
		share := float64(a.ByBucket(b)) / float64(a.Total)
		c.sums[i] += share
		if share > 0 {
			c.sketches[i].Add(share)
		}
	}
}

// slice finalizes the (protocol, mix) table. Every bucket appears, even
// all-zero ones — the schema is fixed so diffs across sweeps line up.
func (c *critAgg) slice(protocol, mix string) CritPathSlice {
	out := CritPathSlice{Protocol: protocol, Mix: mix, Deals: c.deals}
	for i, bucket := range trace.Buckets {
		b := BucketShare{Bucket: bucket.String(), MeanShare: c.sums[i] / float64(c.deals)}
		if c.sketches[i].count > 0 {
			d := c.sketches[i].Dist()
			b.P50Share, b.P99Share = d.P50, d.P99
		}
		out.Buckets = append(out.Buckets, b)
	}
	return out
}

// critKey identifies a (protocol, mix) slice; the separator cannot
// occur in protocol names.
func critKey(protocol, mix string) string { return protocol + "|" + mix }

// addCrit folds one record's attribution into the aggregator.
func (a *Aggregator) addCrit(r Record) {
	if r.CritPath == nil || r.CritPath.Total <= 0 {
		return
	}
	mix := "compliant"
	if r.Adversaries > 0 {
		mix = "adversarial"
	}
	if a.crit == nil {
		a.crit = make(map[string]*critAgg)
	}
	key := critKey(r.Protocol, mix)
	c := a.crit[key]
	if c == nil {
		c = &critAgg{}
		a.crit[key] = c
	}
	c.add(r.CritPath)
}

// criticalPath finalizes the block; nil when no folded deal decided.
func (a *Aggregator) criticalPath() *CriticalPathBlock {
	if len(a.crit) == 0 {
		return nil
	}
	keys := make([]string, 0, len(a.crit))
	for k := range a.crit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cb := &CriticalPathBlock{}
	for _, k := range keys {
		sep := 0
		for i := range k {
			if k[i] == '|' {
				sep = i
				break
			}
		}
		cb.Slices = append(cb.Slices, a.crit[k].slice(k[:sep], k[sep+1:]))
	}
	return cb
}

// fprintCriticalPath renders the block as the report's attribution
// table: which cause bucket owns the population's decision latency.
func fprintCriticalPath(w io.Writer, cb *CriticalPathBlock) {
	fmt.Fprintf(w, "\ncritical path (share of decision latency, by protocol and adversary mix):\n")
	fmt.Fprintf(w, "  %-10s %-12s %6s  %-16s %7s %7s %7s\n",
		"protocol", "mix", "deals", "bucket", "mean", "p50", "p99")
	for _, s := range cb.Slices {
		for i, b := range s.Buckets {
			proto, mix, deals := "", "", ""
			if i == 0 {
				proto, mix, deals = s.Protocol, s.Mix, fmt.Sprintf("%d", s.Deals)
			}
			fmt.Fprintf(w, "  %-10s %-12s %6s  %-16s %6.1f%% %6.1f%% %6.1f%%\n",
				proto, mix, deals, b.Bucket, 100*b.MeanShare, 100*b.P50Share, 100*b.P99Share)
		}
	}
}

// recordFlightCrit appends the flagged deal's latency attribution to
// its flight-recorder evidence — the causal summary riding alongside
// the violation events, so a dumped JSONL already says where the dying
// deal's time went before anyone replays it.
func recordFlightCrit(rec *obs.Recorder, r Record) {
	if rec == nil || r.CritPath == nil {
		return
	}
	cp := r.CritPath
	rec.Record(r.EndedAt, "fleet", "critical-path",
		fmt.Sprintf("index=%d seed=%d protocol_wait=%d block_queueing=%d fee_priced_out=%d adversary=%d scheduling_slack=%d total=%d",
			r.Index, r.Seed, cp.ProtocolWait, cp.BlockQueueing, cp.PricedOut, cp.Adversary, cp.Slack, cp.Total))
}
