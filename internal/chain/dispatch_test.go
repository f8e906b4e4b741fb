package chain

import (
	"fmt"
	"reflect"
	"testing"

	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
)

// note is a payload naming a topic, as escrow and vote payloads name
// their deal; an empty topic names none.
type note struct {
	topic string
	n     int
}

func (n note) Topic() string { return n.topic }

// tagger emits one event of the kind its caller names, under the topic
// of the note the call carries.
type tagger struct{ n int }

func (g *tagger) Invoke(env *Env, method string, args any) (any, error) {
	g.n++
	a, _ := args.(note)
	env.Emit(method, note{a.topic, g.n})
	return nil, nil
}

// The delay policies the fan-out tests run under: delays that can be 0,
// delays that cannot, a GST policy whose bounds change mid-run (so
// fan-outs happen on each side of GST), and a fixed delay, which draws
// nothing at all.
var fanPolicies = []struct {
	name   string
	policy DelayPolicy
}{
	{"min0", SyncPolicy{Min: 0, Max: 3}},
	{"min1", SyncPolicy{Min: 1, Max: 5}},
	{"gst", GSTPolicy{GST: 50, Min: 1, PreMax: 30, PostMax: 4}},
	{"fixed", SyncPolicy{Min: 3, Max: 3}},
}

// sequential is the reference the positional fan-out is checked
// against, the loop it replaced: every live subscriber draws its notify
// delay in subscription order, one draw after another, and those that
// may see the item (untopiced, or of its topic) and want it are
// delivered it — each by an event of its own, or, grouped, by one event
// per distinct delay as fanOut groups them.
func sequential[T any](grouped bool) func(*Chain, *subscribers[T], string, T) {
	return func(c *Chain, l *subscribers[T], topic string, item T) {
		sees := make(map[int32]bool)
		for _, id := range l.open {
			sees[id] = true
		}
		if topic != "" {
			for _, id := range l.topics[topic] {
				sees[id] = true
			}
		}
		var fns []func(T)
		var delays []sim.Duration
		for id, s := range l.all {
			if s.fn == nil {
				continue
			}
			d := max(c.delay(), 0)
			if !sees[int32(id)] || s.wants != nil && !s.wants(item) {
				continue
			}
			fns, delays = append(fns, s.fn), append(delays, d)
		}
		for i, fn := range fns {
			if !grouped {
				c.sched.After(delays[i], func() { fn(item) })
				continue
			}
			d := delays[i]
			if d < 0 {
				continue
			}
			var group []func(T)
			for j := i; j < len(fns); j++ {
				if delays[j] == d {
					group, delays[j] = append(group, fns[j]), -1
				}
			}
			c.sched.After(d, func() {
				for _, fn := range group {
					fn(item)
				}
			})
		}
	}
}

// useFanOut swaps the three fan-outs for the sequential reference until
// the returned function restores them; positional keeps fanOut.
func useFanOut(mode string) (restore func()) {
	ev, tx, bid := fanEvents, fanGossip, fanBids
	switch mode {
	case "per-delivery":
		fanEvents, fanGossip, fanBids = sequential[Event](false), sequential[PendingTx](false), sequential[BundleGossip](false)
	case "sequential":
		fanEvents, fanGossip, fanBids = sequential[Event](true), sequential[PendingTx](true), sequential[BundleGossip](true)
	}
	return func() { fanEvents, fanGossip, fanBids = ev, tx, bid }
}

// TestFilteredDeliveryMatchesUnfiltered drives one seeded 60-transaction
// script through two chains with eight subscribers each, once for
// contract events and once for mempool gossip, under each delay policy.
// On the first chain, subscribers 1, 3, 5 and 7 declare an interest in
// one kind to the chain, and subscribers 2 and 5 subscribe to one topic;
// on the second every subscriber takes everything and applies the same
// interest on delivery. Mid-run, subscriber 4 leaves for good and
// subscriber 6 leaves and rejoins, on both chains alike, so the live
// ranks behind them shift. The filter may only remove deliveries nobody
// acts on: every wanted item must reach the same subscriber at the same
// time in the same order, the chain's delay stream must end in the same
// state (an unseen or rejected item still owns its draw), and filtering
// must never add a scheduler step (deliveries share one event per delay,
// so a rejected delivery saves a step only when it was alone at its
// delay).
func TestFilteredDeliveryMatchesUnfiltered(t *testing.T) {
	kinds := []string{"red", "green", "blue", "grey"}
	topics := []string{"", "t0", "t1"}
	// A path subscribes an observer to one delivery channel under a topic
	// ("" for none); wants nil takes everything. Each delivery is reported
	// as its kind, topic and payload.
	paths := []struct {
		name      string
		subscribe func(c *Chain, topic string, wants func(kind string) bool, fn func(kind, topic string, data any)) func()
	}{
		{"events", func(c *Chain, topic string, wants func(string) bool, fn func(string, string, any)) func() {
			var filter func(Event) bool
			if wants != nil {
				filter = func(ev Event) bool { return wants(ev.Kind) }
			}
			return c.SubscribeTopic(topic, filter, func(ev Event) { fn(ev.Kind, ev.Topic, ev.Data) })
		}},
		{"mempool", func(c *Chain, topic string, wants func(string) bool, fn func(string, string, any)) func() {
			var filter func(PendingTx) bool
			if wants != nil {
				filter = func(ptx PendingTx) bool { return wants(ptx.Method) }
			}
			return c.SubscribeMempool(topic, filter, func(ptx PendingTx) { fn(ptx.Method, ptx.Topic, ptx.Sender) })
		}},
	}
	type delivery struct {
		sub         int
		kind, topic string
		data        any
		at          sim.Time
	}
	type outcome struct {
		got      []delivery
		rejected uint64 // deliveries a subscriber had no interest in
		steps    uint64
		nextDraw uint64
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			for _, pol := range fanPolicies {
				t.Run(pol.name, func(t *testing.T) {
					drive := func(filtered bool) outcome {
						var out outcome
						sched := sim.NewScheduler()
						c := New(Config{
							ID: "fan", BlockInterval: 10, Delays: pol.policy,
							Schedule: gas.DefaultSchedule(), MaxBlockTxs: 4,
						}, sched, sim.NewRNG(3))
						c.MustDeploy("tag", &tagger{})
						subscribe := func(sub int) func() {
							// Odd subscribers care for one kind each, 2 and 5
							// for one topic each; the rest for everything.
							kindOK := func(kind string) bool { return sub%2 == 0 || kind == kinds[sub/2] }
							topic := map[int]string{2: "t0", 5: "t1"}[sub]
							record := func(kind, got string, data any) {
								if !kindOK(kind) || topic != "" && got != topic {
									out.rejected++
									return
								}
								out.got = append(out.got, delivery{sub, kind, got, data, sched.Now()})
							}
							if !filtered {
								return path.subscribe(c, "", nil, record)
							}
							var wants func(string) bool
							if sub%2 == 1 {
								wants = kindOK
							}
							return path.subscribe(c, topic, wants, record)
						}
						unsub := make([]func(), 8)
						for sub := range unsub {
							unsub[sub] = subscribe(sub)
						}
						sched.At(45, unsub[4])
						sched.At(35, unsub[6])
						sched.At(65, func() { subscribe(6) })
						script := sim.NewRNG(42)
						for i := 0; i < 60; i++ {
							c.SubmitAfter(sim.Duration(script.Intn(90)), &Tx{
								Sender: Addr(fmt.Sprintf("p%d", i%5)), Contract: "tag",
								Method: kinds[script.Intn(len(kinds))], Label: "t",
								Args: note{topic: topics[script.Intn(len(topics))]},
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
						t.Fatalf("%d items reached a subscriber whose filter or topic rejects them", few.rejected)
					}
					if all.nextDraw != few.nextDraw {
						t.Fatal("the chain's delay stream ended in a different state: an unseen or rejected item skipped its draw")
					}
					if few.steps > all.steps {
						t.Fatalf("steps %d unfiltered, %d filtered: filtering added scheduler events", all.steps, few.steps)
					}
				})
			}
		})
	}
}

// TestFanOutMatchesPerDeliveryOracle drives one seeded script through a
// chain three times — with fanOut, with the sequential reference grouped
// as fanOut groups, and with the sequential reference one event per
// delivery — for contract events, mempool gossip and bundle bids, under
// each delay policy. The handlers do what makes positional draws and
// grouping delicate: subscriber 1 schedules follow-ups After(0) and
// After(1); subscriber 2 unsubscribes subscriber 6, which may sit later
// in the same group, and re-subscribes it, alternately under a topic and
// without; subscriber 7 leaves for good after five deliveries; and
// subscriber 0 publishes new transactions, fanning out from inside a
// delivery. Subscribers 3 and 5 see one topic each. Every run must log
// the same (subscriber, item, tick) sequence, follow-ups included, and
// leave the chain's delay stream in the same state; fanOut must take
// exactly the grouped reference's scheduler steps, and fewer than one
// per delivery.
func TestFanOutMatchesPerDeliveryOracle(t *testing.T) {
	kinds := []string{"red", "green", "blue", "grey"}
	topics := []string{"", "t0", "t1"}
	paths := []struct {
		name string
		// subscribe returns the unsubscribe function; wants nil takes all.
		subscribe func(c *Chain, topic string, wants func(kind string) bool, fn func(item string)) func()
		submit    func(c *Chain, tx *Tx, i int)
	}{
		{"events", func(c *Chain, topic string, wants func(string) bool, fn func(string)) func() {
			var filter func(Event) bool
			if wants != nil {
				filter = func(ev Event) bool { return wants(ev.Kind) }
			}
			return c.SubscribeTopic(topic, filter, func(ev Event) { fn(fmt.Sprint(ev.Kind, ev.Data)) })
		}, func(c *Chain, tx *Tx, _ int) { c.Submit(tx) }},
		{"mempool", func(c *Chain, topic string, wants func(string) bool, fn func(string)) func() {
			var filter func(PendingTx) bool
			if wants != nil {
				filter = func(ptx PendingTx) bool { return wants(ptx.Method) }
			}
			return c.SubscribeMempool(topic, filter, func(ptx PendingTx) { fn(fmt.Sprint(ptx.Method, ptx.Sender, ptx.Topic)) })
		}, func(c *Chain, tx *Tx, _ int) { c.Submit(tx) }},
		{"bundle-bids", func(c *Chain, _ string, _ func(string) bool, fn func(string)) func() {
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
		for _, pol := range fanPolicies {
			t.Run(path.name+"/"+pol.name, func(t *testing.T) {
				drive := func(mode string) outcome {
					defer useFanOut(mode)()
					var out outcome
					sched := sim.NewScheduler()
					c := New(Config{
						ID: "fan", BlockInterval: 10, Delays: pol.policy, Schedule: gas.DefaultSchedule(),
						MaxBlockTxs: 4, FeeMarket: &feemarket.Config{Initial: 100}, Bundles: true,
					}, sched, sim.NewRNG(5))
					c.MustDeploy("tag", &tagger{})
					log := func(who, item string) { out.log = append(out.log, entry{who, item, sched.Now()}) }
					published := 0
					publish := func(kind string) {
						path.submit(c, &Tx{
							Sender: Addr(fmt.Sprintf("p%d", published%5)), Contract: "tag",
							Method: kind, Label: "t", Args: note{topic: topics[published%len(topics)]},
						}, published)
						published++
					}
					var unsub6 func()
					var cut struct {
						item string
						at   sim.Time
					}
					joins := 0
					var subscribe6 func()
					subscribe6 = func() {
						topic := ""
						if joins%2 == 1 {
							topic = "t1"
						}
						joins++
						unsub6 = path.subscribe(c, topic, nil, func(item string) {
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
						topic := map[int]string{3: "t0", 5: "t1"}[s]
						n := 0
						var unsub func()
						unsub = path.subscribe(c, topic, wants, func(item string) {
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
							case 7:
								if n == 5 {
									unsub()
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
				oracle, grouped, positional := drive("per-delivery"), drive("sequential"), drive("positional")
				if len(oracle.log) < 500 {
					t.Fatalf("script too quiet to tell: %d deliveries", len(oracle.log))
				}
				for _, run := range []struct {
					name string
					out  outcome
				}{{"grouped", grouped}, {"positional", positional}} {
					if !reflect.DeepEqual(oracle.log, run.out.log) {
						for i := range oracle.log {
							if i >= len(run.out.log) || oracle.log[i] != run.out.log[i] {
								t.Fatalf("%s: delivery %d differs: per-delivery %+v, %s %+v",
									run.name, i, oracle.log[i], run.name, run.out.log[min(i, len(run.out.log)-1)])
							}
						}
						t.Fatalf("%s run delivered %d more items", run.name, len(run.out.log)-len(oracle.log))
					}
					if oracle.nextDraw != run.out.nextDraw {
						t.Fatalf("%s: the chain's delay stream ended in a different state", run.name)
					}
				}
				if positional.steps != grouped.steps {
					t.Fatalf("steps %d positional, %d in the grouped sequential loop", positional.steps, grouped.steps)
				}
				if positional.steps >= oracle.steps && pol.name != "fixed" {
					t.Fatalf("steps %d per delivery, %d positional: nothing was grouped", oracle.steps, positional.steps)
				}
				if positional.cutLive == 0 {
					t.Fatal("subscriber 6 never received an item in the tick it was unsubscribed: the script misses that case")
				}
			})
		}
	}
}

// sharedChain is a chain carrying deals deals' subscribers the way an
// arena's shared chain does: per deal, parties subscribers of the deal's
// topic wanting its escrow events, and one untopiced observer taking its
// own deal's events and those that name no deal. Every filter call is
// counted in visits.
func sharedChain(deals, parties int, visits *int) (*Chain, *sim.Scheduler) {
	sched := sim.NewScheduler()
	c := New(Config{
		ID: "shared", Delays: SyncPolicy{Min: 1, Max: 5}, Schedule: gas.DefaultSchedule(),
	}, sched, sim.NewRNG(9))
	for d := 0; d < deals; d++ {
		deal := fmt.Sprintf("d%03d", d)
		c.SubscribeFiltered(func(ev Event) bool {
			*visits++
			return ev.Topic == "" || ev.Topic == deal
		}, func(Event) {})
		for p := 0; p < parties; p++ {
			c.SubscribeTopic(deal, func(ev Event) bool {
				*visits++
				return ev.Kind == "escrowed"
			}, func(Event) {})
		}
	}
	return c, sched
}

// TestTopicEventVisitsOnlyItsTopic: publishing one deal's event on a
// chain carrying 50 deals' subscribers calls the filters of that deal's
// topic subscribers and of the untopiced ones, and no other, yet every
// live subscriber's draw is consumed.
func TestTopicEventVisitsOnlyItsTopic(t *testing.T) {
	const deals, parties = 50, 3
	visits := 0
	c, sched := sharedChain(deals, parties, &visits)
	delivered := 0
	c.SubscribeTopic("d017", nil, func(Event) { delivered++ })
	want := *c.rng
	want.Skip(deals*(parties+1) + 1)
	c.dispatch(Event{Chain: "shared", Kind: "escrowed", Data: note{"d017", 1}, Topic: "d017"})
	sched.Run()
	if max := parties + deals; visits > max {
		t.Fatalf("one topiced event called %d filters, want at most %d (the topic's plus the untopiced)", visits, max)
	}
	if delivered != 1 {
		t.Fatalf("the topic's unfiltered subscriber got %d deliveries, want 1", delivered)
	}
	if *c.rng != want {
		t.Fatal("the delay stream did not advance past every live subscriber")
	}
}

// BenchmarkFanOutSharedChain publishes and delivers one deal's event on
// a chain carrying 50 deals' subscribers (two topic subscribers and an
// observer per deal, as on an arena's shared chain): the chain layer's
// cost per event, without the rest of a sweep.
func BenchmarkFanOutSharedChain(b *testing.B) {
	visits := 0
	c, sched := sharedChain(50, 2, &visits)
	ev := Event{Chain: "shared", Kind: "escrowed", Data: note{"d017", 1}, Topic: "d017"}
	b.ReportAllocs()
	events := 0
	for b.Loop() {
		c.dispatch(ev)
		sched.Run()
		events++
	}
	b.ReportMetric(float64(visits)/float64(events), "visits/op")
}
