package chain

import (
	"xdeal/internal/obs"
)

// RegisterMetrics folds this chain's lifetime counters into a registry.
// Collection is post-hoc and purely derived from simulation state
// (heights, receipts, the fee ledger), so registering is side-effect
// free: running with or without a registry yields bit-identical
// simulations. Metric names are chain-agnostic — registries from many
// worlds merge commutatively (sums, maxes) into one sweep-level
// snapshot that is independent of worker count.
func (c *Chain) RegisterMetrics(reg *obs.Registry) {
	if reg == nil || c == nil {
		return
	}
	reg.Counter("chain.blocks_sealed").Add(c.height)
	reg.Counter("chain.txs_included").Add(uint64(len(c.receipts)))
	reg.Gauge("chain.mempool_high").Set(int64(c.mpHigh))

	queue := reg.Histogram("chain.tx_queue_delay_ticks", obs.TickBuckets())
	interval := reg.Histogram("chain.block_interval_ticks", obs.TickBuckets())
	var lastBlock int64 = -1
	for _, r := range c.receipts {
		queue.Observe(float64(r.Queued()))
		bt := int64(r.Time)
		if bt != lastBlock {
			if lastBlock >= 0 {
				interval.Observe(float64(bt - lastBlock))
			}
			lastBlock = bt
		}
	}

	if c.fees != nil {
		c.fees.RegisterMetrics(reg)
	}
}
