package chain

import (
	"testing"

	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// nop is a contract that does nothing, so a transaction's allocations
// are the chain's own.
type nop struct{}

func (nop) Invoke(*Env, string, any) (any, error) { return nil, nil }

// TestFanOutAllocatesNothingWarm: once its delivery nodes have run and
// gone back to the subscriber list, fanning one event out to k
// subscribers at distinct delays allocates nothing — no closure per
// delivery and no shared heap copy of the item.
func TestFanOutAllocatesNothingWarm(t *testing.T) {
	const k = 8
	sched := sim.NewScheduler()
	c := New(Config{ID: "c", Delays: SyncPolicy{Min: 1, Max: 1 << 20}}, sched, sim.NewRNG(3))
	got := 0
	for i := 0; i < k; i++ {
		c.Subscribe(func(Event) { got++ })
	}
	ev := Event{Chain: "c", Kind: "k", Data: note{"d", 1}, Topic: "d"}
	c.dispatch(ev)
	sched.Run()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { c.dispatch(ev); sched.Run() }); allocs != 0 {
		t.Fatalf("a warm fan-out to %d subscribers allocates %v times, want 0", k, allocs)
	}
	if want := k * (runs + 2); got != want { // AllocsPerRun adds one warm-up run
		t.Fatalf("%d deliveries, want %d", got, want)
	}
}

// TestTxCycleAllocations pins what one transaction's whole cycle costs
// on a warm chain — submit, mempool arrival, block, receipt delivery:
// the block's receipt slab and nothing else. Each scheduled step runs a
// call built once per chain, and the transaction runs in the chain's
// one re-aimed Env.
func TestTxCycleAllocations(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(Config{ID: "c", Schedule: gas.DefaultSchedule()}, sched, sim.NewRNG(5))
	c.MustDeploy("nop", nop{})
	receipts := 0
	tx := &Tx{Sender: "a", Contract: "nop", Method: "m", Label: "t",
		OnReceipt: func(*Receipt) { receipts++ }}
	c.Submit(tx)
	sched.Run()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { c.Submit(tx); sched.Run() }); allocs != 1 {
		t.Fatalf("a warm submit → arrival → block → receipt cycle allocates %v times, want 1 (the receipt slab)", allocs)
	}
	if want := runs + 2; receipts != want || c.height != uint64(want) {
		t.Fatalf("%d receipts in %d blocks, want %d of each", receipts, c.height, want)
	}
}
