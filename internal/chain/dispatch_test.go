package chain

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/feemarket"
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
// item still draws its delay), and filtering must never add a scheduler
// step (deliveries share one event per delay, so a rejected delivery
// saves a step only when it was alone at its delay).
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
			if few.steps > all.steps {
				t.Fatalf("steps %d unfiltered, %d filtered: filtering added scheduler events", all.steps, few.steps)
			}
		})
	}
}

// perDelivery is the reference fan-out grouping is checked against: each
// live subscriber draws its notify delay in subscription order, and each
// wanted delivery is a scheduler event of its own.
func perDelivery[T any](c *Chain, subs []subscription[T], item T) {
	now := c.sched.Now()
	for _, s := range subs {
		fn := s.fn
		if fn == nil {
			continue
		}
		d := c.cfg.Delays.NotifyDelay(now, c.rng)
		if s.wants != nil && !s.wants(item) {
			continue
		}
		c.sched.After(d, func() { fn(item) })
	}
}

// TestFanOutMatchesPerDeliveryOracle drives one seeded script through a
// chain twice, once with the grouped fan-out and once with perDelivery,
// for contract events, mempool gossip and bundle bids, under a delay
// policy that can draw 0 and one that cannot. The handlers do what makes
// grouping delicate: subscriber 1 schedules follow-ups After(0) and
// After(1), subscriber 2 unsubscribes (and re-subscribes) subscriber 6,
// which may sit later in the same group, and subscriber 0 publishes new
// transactions, fanning out from inside a delivery. Both runs must log
// the same (subscriber, item, tick) sequence, follow-ups included, leave
// the chain's delay stream in the same state, and differ only in
// scheduler steps.
func TestFanOutMatchesPerDeliveryOracle(t *testing.T) {
	kinds := []string{"red", "green", "blue", "grey"}
	paths := []struct {
		name string
		// subscribe returns the unsubscribe function; wants nil takes all.
		subscribe func(c *Chain, wants func(kind string) bool, fn func(item string)) func()
		submit    func(c *Chain, tx *Tx, i int)
	}{
		{"events", func(c *Chain, wants func(string) bool, fn func(string)) func() {
			var filter func(Event) bool
			if wants != nil {
				filter = func(ev Event) bool { return wants(ev.Kind) }
			}
			return c.SubscribeFiltered(filter, func(ev Event) { fn(fmt.Sprint(ev.Kind, ev.Data)) })
		}, func(c *Chain, tx *Tx, _ int) { c.Submit(tx) }},
		{"mempool", func(c *Chain, wants func(string) bool, fn func(string)) func() {
			var filter func(PendingTx) bool
			if wants != nil {
				filter = func(ptx PendingTx) bool { return wants(ptx.Method) }
			}
			return c.SubscribeMempool(filter, func(ptx PendingTx) { fn(fmt.Sprint(ptx.Method, ptx.Sender)) })
		}, func(c *Chain, tx *Tx, _ int) { c.Submit(tx) }},
		{"bundle-bids", func(c *Chain, _ func(string) bool, fn func(string)) func() {
			return c.SubscribeBundleBids(func(g BundleGossip) { fn(fmt.Sprint(g.Deal, g.Slots, g.PerSlot)) })
		}, func(c *Chain, tx *Tx, i int) {
			deal := fmt.Sprintf("d%d", i%3)
			c.SubmitBundled(BundleTx{Deal: deal, Tx: tx, PerSlot: 1 + uint64(i%4)})
			if i%7 == 0 {
				c.BumpBundleBid(deal, 6)
			}
		}},
	}
	type entry struct {
		who  string
		item string
		at   sim.Time
	}
	type outcome struct {
		log      []entry
		steps    uint64
		nextDraw uint64
		cutLive  int // deliveries to subscriber 6 in the tick it was unsubscribed
	}
	for _, path := range paths {
		for _, policy := range []SyncPolicy{{Min: 0, Max: 3}, {Min: 1, Max: 5}} {
			t.Run(fmt.Sprintf("%s/min%d", path.name, policy.Min), func(t *testing.T) {
				drive := func(grouped bool) outcome {
					if !grouped {
						ev, tx, bid := fanEvents, fanGossip, fanBids
						fanEvents, fanGossip, fanBids = perDelivery[Event], perDelivery[PendingTx], perDelivery[BundleGossip]
						defer func() { fanEvents, fanGossip, fanBids = ev, tx, bid }()
					}
					var out outcome
					sched := sim.NewScheduler()
					c := New(Config{
						ID: "fan", BlockInterval: 10, Delays: policy, Schedule: gas.DefaultSchedule(),
						MaxBlockTxs: 4, FeeMarket: &feemarket.Config{Initial: 100}, Bundles: true,
					}, sched, sim.NewRNG(5))
					c.MustDeploy("tag", &tagger{})
					log := func(who, item string) { out.log = append(out.log, entry{who, item, sched.Now()}) }
					published := 0
					publish := func(kind string) {
						path.submit(c, &Tx{
							Sender: Addr(fmt.Sprintf("p%d", published%5)), Contract: "tag",
							Method: kind, Label: "t",
						}, published)
						published++
					}
					var unsub6 func()
					var cut struct {
						item string
						at   sim.Time
					}
					var subscribe6 func()
					subscribe6 = func() {
						unsub6 = path.subscribe(c, nil, func(item string) {
							if item == cut.item && sched.Now() == cut.at {
								out.cutLive++
							}
							log("6", item)
						})
					}
					for s := 0; s < 8; s++ {
						who := fmt.Sprint(s)
						var wants func(string) bool
						if s%2 == 1 {
							wants = func(kind string) bool { return kind != kinds[s/2] }
						}
						if s == 6 {
							subscribe6()
							continue
						}
						n := 0
						path.subscribe(c, wants, func(item string) {
							log(who, item)
							n++
							switch s {
							case 0:
								if n%3 == 0 && published < 90 {
									publish(kinds[n%len(kinds)])
								}
							case 1:
								sched.After(0, func() { log("1+0", item) })
								if n%2 == 1 {
									sched.After(1, func() { log("1+1", item) })
								}
							case 2:
								if n%2 == 0 {
									cut.item, cut.at = item, sched.Now()
									unsub6()
									subscribe6()
								}
							}
						})
					}
					script := sim.NewRNG(42)
					for i := 0; i < 60; i++ {
						kind := kinds[script.Intn(len(kinds))]
						sched.After(sim.Duration(script.Intn(120)), func() { publish(kind) })
					}
					sched.Run()
					out.steps, out.nextDraw = sched.Steps(), c.rng.Uint64()
					return out
				}
				oracle, grouped := drive(false), drive(true)
				if len(oracle.log) < 500 {
					t.Fatalf("script too quiet to tell: %d deliveries", len(oracle.log))
				}
				if !reflect.DeepEqual(oracle.log, grouped.log) {
					for i := range oracle.log {
						if i >= len(grouped.log) || oracle.log[i] != grouped.log[i] {
							t.Fatalf("delivery %d differs: per-delivery %+v, grouped %+v", i, oracle.log[i], grouped.log[min(i, len(grouped.log)-1)])
						}
					}
					t.Fatalf("grouped run delivered %d more items", len(grouped.log)-len(oracle.log))
				}
				if oracle.nextDraw != grouped.nextDraw {
					t.Fatal("the chain's delay stream ended in a different state")
				}
				if grouped.steps >= oracle.steps {
					t.Fatalf("steps %d per delivery, %d grouped: nothing was grouped", oracle.steps, grouped.steps)
				}
				if grouped.cutLive == 0 {
					t.Fatal("subscriber 6 never received an item in the tick it was unsubscribed: the script misses that case")
				}
			})
		}
	}
}
