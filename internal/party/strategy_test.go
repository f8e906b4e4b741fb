package party

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
)

// everyKind names each kind of the table once, with parameters in range.
var everyKind = Behavior{
	Crash{At: 700}, Offline{From: 100, Until: 900}, SkipEscrow{}, SkipTransfers{}, SkipVoting{},
	SkipRefundPoke{}, NoForwarding{}, CorruptInfo{}, EscrowShortfall{Amount: 3}, AltruisticVote{},
	VoteDelay{By: 50}, AbortImmediately{}, CommitThenAbort{After: 5}, SoreLoser{Threshold: 0.05},
	FrontRun{Bid: &FeeBid{Budget: 400}}, Grief{}, BundleGrief{Budget: 9},
}

// TestKindsTableListsEveryKind: the table has one row per kind, and the
// kinds' strategies are armed in table order whatever order a list names
// them in.
func TestKindsTableListsEveryKind(t *testing.T) {
	if len(everyKind) != len(kinds) {
		t.Fatalf("%d kinds, table has %d rows", len(everyKind), len(kinds))
	}
	for i, d := range everyKind {
		if got := kindIndex(d); got != i {
			t.Errorf("%T is row %d, want %d", d, got, i)
		}
	}
	reversed := slices.Clone(everyKind)
	slices.Reverse(reversed)
	var p, q Party
	p.adopt(everyKind)
	q.adopt(reversed)
	if len(p.strategies) != len(kinds) || len(q.strategies) != len(kinds) {
		t.Fatalf("built %d and %d strategies, want %d", len(p.strategies), len(q.strategies), len(kinds))
	}
	for i := range p.strategies {
		if p.strategies[i].deviant != q.strategies[i].deviant || (p.strategies[i].start == nil) != (q.strategies[i].start == nil) {
			t.Errorf("strategy %d differs between list orders", i)
		}
	}
}

// TestBehaviorJSON: the list form round-trips every kind, and decoding
// rejects what a party could not act on as written.
func TestBehaviorJSON(t *testing.T) {
	raw, err := json.Marshal(everyKind)
	if err != nil {
		t.Fatal(err)
	}
	var back Behavior
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	if !reflect.DeepEqual(back, everyKind) {
		t.Fatalf("round trip of %s gave %+v", raw, back)
	}
	for _, c := range []struct{ in, want string }{
		{`[{"crash": {"at": 3000}}]`, ""},
		{`[{"front-run": {}}, {"bundle-grief": {}}]`, ""},
		{`[{"front-run": {"bid": {}}}]`, ""},
		{`[]`, ""},
		{`null`, ""},
		{`[{"fee-bid": {}}]`, `unknown deviation kind "fee-bid"`},
		{`[{"front-run": {"budget": 9}}]`, `front-run: unknown parameter "budget"`},
		{`[{"front-run": {"bid": {"cap": 9}}}]`, `front-run: json: unknown field "cap"`},
		{`[{"offline": {"from": 2000}}]`, `offline: missing parameter "until"`},
		{`[{"crash": {}}]`, `crash: missing parameter "at"`},
		{`[{"crash": {"at": -5}}]`, `crash: at -5 is not positive`},
		{`[{"crash": {"at": 5}}, {"crash": {"at": 9}}]`, `crash: named twice`},
		{`[{"crash": {"at": 5}, "grief": {}}]`, `one {"kind": {parameters}} object, not 2 keys`},
		{`[{"grief": null}]`, `grief: parameters are not an object`},
		{`[{"crash": {"at": 1.5}}]`, `crash: json: cannot unmarshal number 1.5`},
		{`{"crash": {"at": 5}}`, `a behavior is a list`},
	} {
		var b Behavior
		err := json.Unmarshal([]byte(c.in), &b)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: %v, want %q", c.in, err, c.want)
		}
	}
}

// FuzzDecodeBehavior feeds arbitrary bytes to the decoder of a Deal
// scenario's Behaviors block: each input is rejected with an error, or
// it decodes to a block that re-encodes and decodes to itself and whose
// every behavior builds a party without panicking. The corpus starts
// from the Behaviors blocks of the scenario files.
func FuzzDecodeBehavior(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var sc struct {
			Deal *struct{ Behaviors json.RawMessage }
		}
		if err := json.Unmarshal(raw, &sc); err != nil {
			f.Fatal(err)
		}
		if sc.Deal != nil {
			f.Add([]byte(sc.Deal.Behaviors))
		}
	}
	every, err := json.Marshal(everyKind)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"bob": ` + string(every) + `}`))
	spec := deal.BrokerSpec(2000, 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		var block map[chain.Addr]Behavior
		if json.Unmarshal(data, &block) != nil {
			return
		}
		again := make(map[chain.Addr]Behavior, len(block))
		for _, addr := range slices.Sorted(maps.Keys(block)) {
			b := block[addr]
			raw, err := json.Marshal(b)
			if err != nil {
				t.Fatalf("%v re-encodes with %v", b, err)
			}
			var back Behavior
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("%s: re-encoded %v does not decode: %v", raw, b, err)
			}
			again[addr] = back
			New("alice", Config{Spec: spec, Protocol: ProtoTimelock, Behavior: b})
		}
		if !reflect.DeepEqual(again, block) {
			t.Fatalf("%s decodes to %v, re-encoded to %v", data, block, again)
		}
	})
}
