package cbc

import "testing"

// TestBlockDeliveryAllocatesNothingPerSubscriber pins a warm block —
// publish, seal, deliver — at the same allocation count whether no
// observer, one or eight subscribe: each observer's delivery call is
// built once in Subscribe and the block is produced by a call built once
// in New, so delivering a block to k observers schedules k events on
// recycled scheduler nodes and allocates nothing per observer.
func TestBlockDeliveryAllocatesNothingPerSubscriber(t *testing.T) {
	// A repeated startDeal is accepted into a block without changing
	// state, so every cycle seals one block of one entry.
	cycleAllocs := func(k int) float64 {
		c, sched, _ := freshCBC(3)
		delivered := 0
		for i := 0; i < k; i++ {
			c.Subscribe(func(*Block) { delivered++ })
		}
		e := Entry{Kind: EntryStartDeal, Deal: "D", Party: parties[0], Parties: parties}
		height := c.Height()
		cycle := func() {
			c.Publish(e)
			sched.Run()
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		allocs := testing.AllocsPerRun(100, cycle)
		blocks := int(c.Height() - height)
		if blocks != 64+101 || delivered != k*blocks {
			t.Fatalf("%d subscribers: %d blocks sealed and %d deliveries, want %d blocks and %d deliveries",
				k, blocks, delivered, 64+101, k*(64+101))
		}
		return allocs
	}
	base := cycleAllocs(0)
	for _, k := range []int{1, 8} {
		if got := cycleAllocs(k); got != base {
			t.Errorf("a warm block delivered to %d subscribers makes %v allocations, %v with none", k, got, base)
		}
	}
}
