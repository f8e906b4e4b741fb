package party

import (
	"math"
	"strings"
	"testing"

	"xdeal/internal/bft"
	"xdeal/internal/cbc"
	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
)

func TestBehaviorComplianceClassification(t *testing.T) {
	cases := []struct {
		name      string
		b         Behavior
		compliant bool
	}{
		{"zero value", Behavior{}, true},
		{"altruistic", Behavior{Altruistic: true}, true},
		{"vote delay", Behavior{VoteDelay: 100}, true}, // slow, not deviant
		{"skip escrow", Behavior{SkipEscrow: true}, false},
		{"skip transfers", Behavior{SkipTransfers: true}, false},
		{"skip voting", Behavior{SkipVoting: true}, false},
		{"no forwarding", Behavior{NoForwarding: true}, false},
		{"crash", Behavior{CrashAt: 5}, false},
		{"offline", Behavior{OfflineFrom: 1, OfflineUntil: 2}, false},
		{"abort immediately", Behavior{AbortImmediately: true}, false},
		{"commit then abort", Behavior{CommitThenAbort: 1}, false},
		{"skip refund poke", Behavior{SkipRefundPoke: true}, false},
	}
	for _, c := range cases {
		if got := c.b.Compliant(); got != c.compliant {
			t.Errorf("%s: Compliant() = %v, want %v", c.name, got, c.compliant)
		}
	}
}

// TestBehaviorValidate: Validate accepts every behavior a party can act
// on and rejects, naming the field, each value that configures nothing.
func TestBehaviorValidate(t *testing.T) {
	valid := []Behavior{
		{}, {Hedged: true}, {SkipVoting: true}, {CrashAt: 700}, {VoteDelay: 100},
		{OfflineFrom: 1, OfflineUntil: 2}, {CommitThenAbort: 5}, {SoreLoserThreshold: 0.05},
		{FrontRun: true}, {FrontRun: true, FeeBid: true}, {FrontRun: true, FeeBid: true, FeeBudget: 400},
		{BundleGrief: true, BundleBudget: 400},
	}
	for _, b := range valid {
		if err := b.Validate(); err != nil {
			t.Errorf("%+v: %v", b, err)
		}
	}
	invalid := []struct {
		b     Behavior
		field string
	}{
		{Behavior{OfflineFrom: 2000}, "OfflineFrom"},
		{Behavior{OfflineFrom: 2000, OfflineUntil: 2000}, "OfflineFrom"},
		{Behavior{OfflineUntil: 2000}, "OfflineUntil"},
		{Behavior{CrashAt: -1}, "CrashAt"},
		{Behavior{OfflineFrom: -1, OfflineUntil: 5}, "OfflineFrom"},
		{Behavior{VoteDelay: -1}, "VoteDelay"},
		{Behavior{CommitThenAbort: -1}, "CommitThenAbort"},
		{Behavior{SoreLoserThreshold: -0.5}, "SoreLoserThreshold"},
		{Behavior{SoreLoserThreshold: math.NaN()}, "SoreLoserThreshold"},
		{Behavior{SoreLoserThreshold: math.Inf(1)}, "SoreLoserThreshold"},
		{Behavior{SoreLoserThreshold: math.Inf(-1)}, "SoreLoserThreshold"},
		{Behavior{FeeBid: true}, "FeeBid"},
		{Behavior{FrontRun: true, FeeBudget: 9}, "FeeBudget"},
		{Behavior{BundleBudget: 9}, "BundleBudget"},
	}
	for _, c := range invalid {
		err := c.b.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), c.field+" ") {
			t.Errorf("%+v: Validate() = %v, want an error naming %s", c.b, err, c.field)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoTimelock.String() != "timelock" || ProtoCBC.String() != "cbc" {
		t.Fatal("Protocol.String() broken")
	}
	if !strings.Contains(Protocol(9).String(), "9") {
		t.Fatal("unknown protocol should render numerically")
	}
}

func TestRelevantChainsCoverInAndOut(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	p := New("bob", Config{Spec: spec, Protocol: ProtoTimelock})
	got := p.mine.Chains
	// Bob sends tickets (ticketchain) and receives coins (coinchain).
	if len(got) != 2 || got[0] != "coinchain" || got[1] != "ticketchain" {
		t.Fatalf("monitored chains = %v, want [coinchain ticketchain] sorted", got)
	}
}

func TestActiveRespectsCrashAndOffline(t *testing.T) {
	sched := sim.NewScheduler()
	spec := deal.BrokerSpec(2000, 1000)
	p := New("alice", Config{
		Spec: spec, Protocol: ProtoTimelock, Sched: sched,
		Behavior: Behavior{OfflineFrom: 100, OfflineUntil: 200},
	})
	p.Start()
	defer p.Stop()
	if !p.active() {
		t.Fatal("party inactive before offline window")
	}
	sched.RunUntil(150)
	if p.active() {
		t.Fatal("party active inside offline window")
	}
	sched.RunUntil(250)
	if !p.active() {
		t.Fatal("party inactive after offline window")
	}

	p2 := New("bob", Config{
		Spec: spec, Protocol: ProtoTimelock, Sched: sched,
		Behavior: Behavior{CrashAt: 300},
	})
	p2.Start()
	defer p2.Stop()
	sched.RunUntil(400)
	if p2.active() {
		t.Fatal("party active after crash")
	}
}

// emitter publishes the payload its call carries as an event.
type emitter struct{}

func (emitter) Invoke(env *chain.Env, method string, args any) (any, error) {
	env.Emit(method, args)
	return nil, nil
}

// TestTopicExtractsIDs: a chain publishes escrow and vote events, and
// gossips commit votes and CBC proofs, under their deal's id as topic —
// the topic parties subscribe by — and anything else under none.
func TestTopicExtractsIDs(t *testing.T) {
	cases := []struct {
		data any
		want string
	}{
		{escrow.EscrowedEvent{Deal: "D1"}, "D1"},
		{escrow.TransferredEvent{Deal: "D2"}, "D2"},
		{escrow.OutcomeEvent{Deal: "D3"}, "D3"},
		{timelock.VoteEvent{Deal: "D4"}, "D4"},
		{timelock.CommitArgs{Deal: "D5"}, "D5"},
		{cbc.ProofArgs{Deal: "D6"}, "D6"},
		{escrow.EscrowArgs{Deal: "D7"}, ""},
		{"something else", ""},
	}
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{ID: "c"}, sched, sim.NewRNG(1))
	c.MustDeploy("emit", emitter{})
	var events, gossip []string
	c.Subscribe(func(ev chain.Event) { events = append(events, ev.Topic) })
	c.SubscribeMempool("", nil, func(ptx chain.PendingTx) { gossip = append(gossip, ptx.Topic) })
	for i, tc := range cases {
		c.SubmitAfter(sim.Duration(100*i), &chain.Tx{Sender: "p", Contract: "emit", Method: "m", Args: tc.data})
	}
	sched.Run()
	if len(events) != len(cases) || len(gossip) != len(cases) {
		t.Fatalf("%d events and %d gossip deliveries for %d transactions", len(events), len(gossip), len(cases))
	}
	for i, tc := range cases {
		if events[i] != tc.want || gossip[i] != tc.want {
			t.Errorf("%T: event topic %q, gossip topic %q, want %q", tc.data, events[i], gossip[i], tc.want)
		}
	}
}

func TestTimelockInfoValidation(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	p := New("alice", Config{Spec: spec, Protocol: ProtoTimelock})
	if !p.timelockInfoOK(timelock.Info{T0: 2000, Delta: 1000}) {
		t.Fatal("correct info rejected")
	}
	if p.timelockInfoOK(timelock.Info{T0: 1, Delta: 1000}) {
		t.Fatal("wrong t0 accepted")
	}
	if p.timelockInfoOK("not info") {
		t.Fatal("foreign info type accepted")
	}
}

func TestInfoSatisfactoryChecksPlist(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	p := New("alice", Config{Spec: spec, Protocol: ProtoTimelock})
	// A view only comes from a contract: register the deal at a book.
	c := chain.New(chain.Config{ID: "coinchain"}, sim.NewScheduler(), sim.NewRNG(1))
	book := escrow.NewBook("coin", deal.Fungible)
	same := func(a, b any) bool { return a == b }
	info := timelock.Info{T0: 2000, Delta: 1000}
	for id, plist := range map[string][]chain.Addr{"good": spec.Parties, "bad": {"alice", "bob"}} {
		if _, err := book.Register(c.TestEnv("coin-escrow"), id, plist, info, same); err != nil {
			t.Fatal(err)
		}
	}
	if !p.infoSatisfactory(book.ViewOf("good")) {
		t.Fatal("correct view rejected")
	}
	if p.infoSatisfactory(book.ViewOf("bad")) {
		t.Fatal("truncated plist accepted")
	}
}

func TestMarkAcceptedTracksVoters(t *testing.T) {
	spec := deal.BrokerSpec(2000, 1000)
	p := New("alice", Config{Spec: spec, Protocol: ProtoTimelock})
	p.markAccepted("k", "bob")
	p.markAccepted("k", "carol")
	if !p.acceptedAt["k"]["bob"] || !p.acceptedAt["k"]["carol"] {
		t.Fatal("votes not recorded")
	}
	if p.acceptedAt["other"]["bob"] {
		t.Fatal("cross-key contamination")
	}
}

func TestCBCInfoValidation(t *testing.T) {
	sched := sim.NewScheduler()
	spec := deal.BrokerSpec(2000, 1000)
	c := cbc.New(cbc.Config{Tag: "t", F: 1, BlockInterval: 10,
		Delays: chain.SyncPolicy{Min: 1, Max: 3}}, sched, sim.NewRNG(5))
	p := New("alice", Config{
		Spec: spec, Protocol: ProtoCBC, Sched: sched,
		CBCHooks: &CBCHooks{CBC: c},
	})
	p.cbcState = &cbcState{started: true}
	p.cbcState.startHash = [32]byte{1, 2, 3}

	good := cbc.Info{StartHash: p.cbcState.startHash, Committee: c.InitialCommittee()}
	if !p.cbcInfoOK(good) {
		t.Fatal("correct CBC info rejected")
	}
	wrongHash := good
	wrongHash.StartHash[0] ^= 0xff
	if p.cbcInfoOK(wrongHash) {
		t.Fatal("wrong start hash accepted")
	}
	evil, _ := bft.NewCommittee("evil", 0, 1)
	wrongCommittee := good
	wrongCommittee.Committee = evil
	if p.cbcInfoOK(wrongCommittee) {
		t.Fatal("foreign committee accepted")
	}
	if p.cbcInfoOK("garbage") {
		t.Fatal("non-info accepted")
	}
	// A party that has not yet seen the startDeal trusts nothing.
	p.cbcState.started = false
	if p.cbcInfoOK(good) {
		t.Fatal("info accepted before the startDeal was observed")
	}
}
