package chain

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// tagger emits one event of the kind its caller names.
type tagger struct{ n int }

func (g *tagger) Invoke(env *Env, method string, args any) (any, error) {
	g.n++
	env.Emit(method, g.n)
	return nil, nil
}

// TestFilteredDeliveryMatchesUnfiltered drives one seeded 60-transaction
// script through two chains with six subscribers each, once for contract
// events and once for mempool gossip. On the first chain, subscribers 1,
// 3 and 5 declare their interest to the chain; on the second every
// subscriber takes everything and applies the same interest on delivery.
// The filter may only remove deliveries nobody acts on: every wanted
// item must reach the same subscriber at the same time in the same
// order, the chain's delay stream must end in the same state (a rejected
// item still draws its delay), and each rejected delivery must cost
// exactly one scheduler step less.
func TestFilteredDeliveryMatchesUnfiltered(t *testing.T) {
	kinds := []string{"red", "green", "blue", "grey"}
	// A path subscribes an observer to one delivery channel; wants nil
	// takes everything. Each delivery is reported as its kind and payload.
	paths := []struct {
		name      string
		subscribe func(c *Chain, wants func(kind string) bool, fn func(kind string, data any))
	}{
		{"events", func(c *Chain, wants func(string) bool, fn func(string, any)) {
			var filter func(Event) bool
			if wants != nil {
				filter = func(ev Event) bool { return wants(ev.Kind) }
			}
			c.SubscribeFiltered(filter, func(ev Event) { fn(ev.Kind, ev.Data) })
		}},
		{"mempool", func(c *Chain, wants func(string) bool, fn func(string, any)) {
			var filter func(PendingTx) bool
			if wants != nil {
				filter = func(ptx PendingTx) bool { return wants(ptx.Method) }
			}
			c.SubscribeMempool(filter, func(ptx PendingTx) { fn(ptx.Method, ptx.Sender) })
		}},
	}
	type delivery struct {
		sub  int
		kind string
		data any
		at   sim.Time
	}
	type outcome struct {
		got      []delivery
		rejected uint64 // deliveries a subscriber had no interest in
		steps    uint64
		nextDraw uint64
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			drive := func(filtered bool) outcome {
				var out outcome
				sched := sim.NewScheduler()
				c := New(Config{
					ID: "fan", BlockInterval: 10, Delays: SyncPolicy{Min: 1, Max: 7},
					Schedule: gas.DefaultSchedule(), MaxBlockTxs: 4,
				}, sched, sim.NewRNG(3))
				c.MustDeploy("tag", &tagger{})
				for sub := 0; sub < 6; sub++ {
					// Odd subscribers care for one kind each; even ones for all.
					wants := func(kind string) bool { return sub%2 == 0 || kind == kinds[sub/2] }
					record := func(kind string, data any) {
						if !wants(kind) {
							out.rejected++
							return
						}
						out.got = append(out.got, delivery{sub, kind, data, sched.Now()})
					}
					if filtered && sub%2 == 1 {
						path.subscribe(c, wants, record)
					} else {
						path.subscribe(c, nil, record)
					}
				}
				script := sim.NewRNG(42)
				for i := 0; i < 60; i++ {
					c.SubmitAfter(sim.Duration(script.Intn(90)), &Tx{
						Sender: Addr(fmt.Sprintf("p%d", i%5)), Contract: "tag",
						Method: kinds[script.Intn(len(kinds))], Label: "t",
					})
				}
				sched.Run()
				out.steps, out.nextDraw = sched.Steps(), c.rng.Uint64()
				return out
			}
			all, few := drive(false), drive(true)
			if len(all.got) == 0 || all.rejected == 0 {
				t.Fatalf("script too quiet to tell: %d deliveries, %d rejected", len(all.got), all.rejected)
			}
			if !reflect.DeepEqual(all.got, few.got) {
				t.Fatalf("wanted deliveries differ:\nunfiltered %v\nfiltered   %v", all.got, few.got)
			}
			if few.rejected != 0 {
				t.Fatalf("%d items reached a subscriber whose filter rejects them", few.rejected)
			}
			if all.nextDraw != few.nextDraw {
				t.Fatal("the chain's delay stream ended in a different state: a rejected item skipped its draw")
			}
			if all.steps-few.steps != all.rejected {
				t.Fatalf("steps %d unfiltered, %d filtered: want exactly the %d rejected deliveries saved",
					all.steps, few.steps, all.rejected)
			}
		})
	}
}
