package main

import (
	"fmt"

	"xdeal/internal/fleet"
)

// workload is one seeded population. Sizes are fixed here, never
// derived at run time: one pass is sized to about 8 s on the 2-core
// reference host, and every size keeps at least 15 deals beyond p99.
type workload struct {
	Name  string
	Deals int
	opts  fleet.Options // template; options() fills seed, size, workers
}

var workloads = []workload{
	{
		Name:  "timelock-adversarial",
		Deals: 4096,
		opts: fleet.Options{Gen: fleet.GenOptions{
			Protocol: "timelock", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6,
		}},
	},
	{
		Name:  "cbc-adversarial",
		Deals: 3072,
		opts: fleet.Options{Gen: fleet.GenOptions{
			Protocol: "cbc", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6,
		}},
	},
	{
		Name:  "compliant-wide",
		Deals: 1536,
		opts: fleet.Options{Gen: fleet.GenOptions{
			Protocol: "mixed", MaxParties: 10,
		}},
	},
	{
		Name:  "arena-congested",
		Deals: 2000,
		opts: fleet.Options{
			Gen: fleet.GenOptions{
				Protocol: "mixed", AdversaryRate: 0.3, Fees: &fleet.FeeOptions{},
			},
			Arena: &fleet.ArenaOptions{
				DealsPerArena: 50, Chains: 2, Baselines: false, Bundles: true, Hedge: true,
			},
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options is the closed loop's one client: a single worker, no shards.
func (w workload) options(seed uint64, deals int) fleet.Options {
	o := w.opts
	o.Deals = deals
	o.Workers = 1
	o.Gen.Seed = seed
	return o
}

// metricDef names one metric and its unit. The two tables below are the
// Go twin of BENCHMARK.json; bench_test.go keeps them in step.
type metricDef struct {
	Name, Unit string
	// Exact marks simulated-time numbers and work counts: they are a
	// pure function of (workload, seed, deals) and repeat exactly.
	Exact bool
}

var endToEnd = []metricDef{
	{"deals_per_sec", "deals/s", false},
	{"alloc_bytes_per_deal", "B", false},
	{"mallocs_per_deal", "count", false},
	{"decision_latency_p50_delta", "delta", true},
	{"decision_latency_p99_delta", "delta", true},
	{"gas_per_deal_p50", "gas", true},
	{"gas_per_deal_mean", "gas", true},
	{"commit_rate", "share", true},
	{"setup_s", "s", false},
}

var perLayer = []metricDef{
	{"fleet.generate_us_per_deal", "us", false},
	{"fleet.aggregate_us_per_deal", "us", false},
	{"fleet.flagged_deals", "count", true},
	{"engine.build_us_per_deal", "us", false},
	{"engine.simulate_us_per_deal", "us", false},
	{"engine.evaluate_us_per_deal", "us", false},
	{"engine.deal_wall_p50_us", "us", false},
	{"engine.deal_wall_p99_us", "us", false},
	{"arena.run_ms_p50", "ms", false},
	{"sim.events_per_deal", "count", true},
	{"sim.ns_per_event", "ns", false},
	{"sim.schedule_fire_ns", "ns", false},
	{"gas.sigverify_per_deal", "count", true},
	{"gas.write_per_deal", "count", true},
	{"gas.per_deal_p99", "gas", true},
	{"sig.verify_us", "us", false},
	{"sig.sign_us", "us", false},
	{"sig.pathsig_verify_us_k4", "us", false},
	{"sig.pathsig_forward_us", "us", false},
	{"sig.est_share", "share", false},
	{"bft.make_certificate_us_f2", "us", false},
	{"bft.certificate_verify_us_f2", "us", false},
	{"bft.committee_encode_ns_f2", "ns", false},
	{"cbc.blocks_per_deal", "count", true},
	{"chain.blocks_per_deal", "count", true},
	{"chain.txs_per_deal", "count", true},
	{"chain.txs_per_block", "count", true},
	{"chain.failed_tx_share", "share", true},
	{"chain.mempool_high", "count", true},
	{"chain.tx_queue_delay_mean_ticks", "ticks", true},
	{"chain.fifo_tx_us", "us", false},
	{"chain.tip_ordered_tx_us", "us", false},
	{"chain.auction_tx_us", "us", false},
	{"escrow.viewof_us", "us", false},
	{"chain.query_us", "us", false},
	{"party.parties_per_deal", "count", true},
	{"escrow.escrows_per_deal", "count", true},
	{"trace.attribute_us", "us", false},
	{"feemarket.burned_per_deal", "fee", true},
	{"bundle.defer_rate", "share", true},
	{"bundle.exclusion_success_rate", "ratio", true},
	{"hedge.binds_per_deal", "count", true},
	{"trace.overhead_share", "share", false},
}

// metric is one reported number. Min, Max and Samples accompany
// host-time end-to-end metrics (the median's passes); Exact marks the
// seed-deterministic ones compare checks by equality.
type metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Samples int      `json:"samples,omitempty"`
	Exact   bool     `json:"exact,omitempty"`
}

// metricSet holds the metrics of one table by name. A metric the public
// surface cannot supply on a workload is simply never set.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]metric, len(defs))}
}

func (s *metricSet) def(name string) metricDef {
	for _, d := range s.defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not in its table") // a typo in this program
}

func (s *metricSet) set(name string, v float64) {
	d := s.def(name)
	s.vals[name] = metric{Value: v, Unit: d.Unit, Exact: d.Exact}
}

// setSamples records the median of per-pass samples with their range.
func (s *metricSet) setSamples(name string, samples []float64) {
	d := s.def(name)
	lo, hi := samples[0], samples[0]
	for _, v := range samples {
		lo, hi = min(lo, v), max(hi, v)
	}
	s.vals[name] = metric{Value: median(samples), Unit: d.Unit, Min: &lo, Max: &hi, Samples: len(samples), Exact: d.Exact}
}
