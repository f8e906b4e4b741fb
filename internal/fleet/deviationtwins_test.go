package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/engine"
	"xdeal/internal/escrow"
	"xdeal/internal/party"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
)

var update = flag.Bool("update", false, "rewrite testdata/deviation_twins.json")

const deviationTwinsPath = "testdata/deviation_twins.json"

// twinDeals is how many seeded deals each cell runs.
const twinDeals = 200

// twinRows are the behaviours the twin test pins: every deviationCatalog
// entry (the fee-market catalog, so the fee-bidding front-runner is
// last), then two rows that reach edge cases no catalog entry does on
// its own — a party that never pokes for its refund, and a late voter
// whose delayed vote comes due while it is offline.
func twinRows(job Job, fees *FeeOptions) []party.Behavior {
	rows := deviationCatalog(job.Spec, fees)
	t0, delta := job.Spec.T0, job.Spec.Delta
	return append(rows,
		party.Behavior{SkipRefundPoke: true},
		party.Behavior{
			VoteDelay:   sim.Duration(t0) - 1000,
			OfflineFrom: t0 - 1100, OfflineUntil: t0 + sim.Time(4*delta),
		})
}

// twinJob is deal i of a cell: a generated job without sampled
// adversaries, with row on one party. Every third deal runs on a fee
// market (the fee bidder always does), every fourth with serialized
// rounds, and DoS outages are frequent, so failed receipts and
// re-drives are common.
func twinJob(t *testing.T, proto string, row, i int) (Job, chain.Addr, party.Behavior) {
	t.Helper()
	fees := &FeeOptions{}
	fees.defaults()
	gen := GenOptions{Seed: 48, Protocol: proto, DoSRate: 0.3, SerializeRounds: i%4 == 3}
	probe, err := NewGenerator(gen)
	if err != nil {
		t.Fatal(err)
	}
	rows := twinRows(probe.Job(i), fees)
	if row == len(deviationCatalog(probe.Job(i).Spec, fees))-1 || i%3 == 2 {
		gen.Fees = fees
	}
	g, err := NewGenerator(gen)
	if err != nil {
		t.Fatal(err)
	}
	job := g.Job(i)
	dev := job.Spec.Parties[i%len(job.Spec.Parties)]
	job.Opts.Behaviors = map[chain.Addr]party.Behavior{dev: rows[row]}
	return job, dev, rows[row]
}

// twinDigest hashes what a deal run left behind: every escrow's outcome,
// every balance change and final token owner, the deal's gas, the time
// the run drained and how many scheduler steps it took.
func twinDigest(w *engine.World, r *engine.Result) string {
	h := sha256.New()
	for _, key := range slices.Sorted(maps.Keys(r.Outcomes)) {
		fmt.Fprintf(h, "outcome %s %v\n", key, r.Outcomes[key])
	}
	for _, p := range r.Spec.Parties {
		d := r.FungibleDelta[p]
		for _, key := range slices.Sorted(maps.Keys(d)) {
			fmt.Fprintf(h, "balance %s %s %d\n", p, key, d[key])
		}
	}
	for _, key := range slices.Sorted(maps.Keys(r.FinalTokenOwners)) {
		owners := r.FinalTokenOwners[key]
		for _, id := range slices.Sorted(maps.Keys(owners)) {
			fmt.Fprintf(h, "owner %s %s %s\n", key, id, owners[id])
		}
	}
	fmt.Fprintf(h, "gas %d %d\nended %d\nsteps %d\n", r.DealGas, r.CBCGas, r.EndedAt, w.Sched.Steps())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// receiptsBy lists the receipts the deviant's transactions left on the
// deal's chains, in chain-id then execution order.
func receiptsBy(w *engine.World, dev chain.Addr) []*chain.Receipt {
	var out []*chain.Receipt
	for _, id := range slices.Sorted(maps.Keys(w.Chains)) {
		for _, r := range w.Chains[id].Receipts() {
			if r.Tx.Sender == dev {
				out = append(out, r)
			}
		}
	}
	return out
}

// votedCommit reports whether the deviant's own commit vote went out:
// submitted to an escrow (timelock) or recorded by the CBC.
func votedCommit(w *engine.World, dev chain.Addr) bool {
	if w.CBC != nil {
		d := w.CBC.Deal(w.Spec.ID)
		return d != nil && d.Committed[dev]
	}
	for _, r := range receiptsBy(w, dev) {
		if a, ok := r.Tx.Args.(timelock.CommitArgs); ok && a.Vote.Voter == string(dev) {
			return true
		}
	}
	return false
}

// twinCase is one run of a cell, as the edge-case witnesses see it.
type twinCase struct {
	proto string
	job   Job
	dev   chain.Addr
	b     party.Behavior
	w     *engine.World
	r     *engine.Result
}

// twinEdges are the edge cases the digests must hold on, each with the
// witness that a deal exercised it. Every edge needs at least one deal.
var twinEdges = []struct {
	name    string
	witness func(t *testing.T, c twinCase) bool
}{
	{"SkipEscrow votes without waiting on the escrows it skips (pipelined)", func(_ *testing.T, c twinCase) bool {
		return c.b.SkipEscrow && !c.job.Opts.SerializeRounds && votedCommit(c.w, c.dev)
	}},
	{"SkipEscrow validates and votes under SerializeRounds", func(_ *testing.T, c twinCase) bool {
		return c.b.SkipEscrow && c.job.Opts.SerializeRounds && votedCommit(c.w, c.dev)
	}},
	{"SkipTransfers votes without waiting on the transfers it skips (pipelined)", func(_ *testing.T, c twinCase) bool {
		return c.b.SkipTransfers && !c.job.Opts.SerializeRounds && votedCommit(c.w, c.dev)
	}},
	{"SkipTransfers validates and votes under SerializeRounds", func(_ *testing.T, c twinCase) bool {
		return c.b.SkipTransfers && c.job.Opts.SerializeRounds && votedCommit(c.w, c.dev)
	}},
	{"CorruptInfo re-drives resubmit the same once-corrupted Dinfo", func(t *testing.T, c twinCase) bool {
		if !c.b.CorruptInfo {
			return false
		}
		var infos []any
		perContract := make(map[string]int)
		for _, r := range receiptsBy(c.w, c.dev) {
			if a, ok := r.Tx.Args.(escrow.EscrowArgs); ok {
				infos = append(infos, a.Info)
				perContract[string(r.Tx.Contract)]++
			}
		}
		for _, info := range infos[min(1, len(infos)):] {
			if !reflect.DeepEqual(info, infos[0]) {
				t.Errorf("%s deal %d: CorruptInfo escrows carry %+v and %+v", c.proto, c.job.Index, infos[0], info)
			}
		}
		for _, n := range perContract {
			if n > 1 {
				return true
			}
		}
		return false
	}},
	{"EscrowShortfall transfers ride on its in-flight deposit", func(_ *testing.T, c twinCase) bool {
		if c.b.EscrowShortfall == 0 || c.job.Opts.SerializeRounds {
			return false
		}
		firstDeposit := make(map[string]sim.Time)
		rs := receiptsBy(c.w, c.dev)
		for _, r := range rs {
			k := string(r.Tx.Contract)
			if _, ok := r.Tx.Args.(escrow.EscrowArgs); ok {
				if at, seen := firstDeposit[k]; !seen || r.Time < at {
					firstDeposit[k] = r.Time
				}
			}
		}
		for _, r := range rs {
			if _, ok := r.Tx.Args.(escrow.TransferArgs); ok {
				if at, ok := firstDeposit[string(r.Tx.Contract)]; ok && r.SubmittedAt < at {
					return true
				}
			}
		}
		return false
	}},
	{"NoForwarding sees others' votes accepted at its incoming escrows", func(_ *testing.T, c twinCase) bool {
		if !c.b.NoForwarding || c.w.CBC != nil {
			return false
		}
		incoming := make(map[chain.Addr]bool)
		for _, tr := range c.job.Spec.Transfers {
			if tr.To == c.dev {
				incoming[tr.Asset.Escrow] = true
			}
		}
		for _, ch := range c.w.Chains {
			for _, r := range ch.Receipts() {
				if a, ok := r.Tx.Args.(timelock.CommitArgs); ok && r.Err == nil &&
					incoming[r.Tx.Contract] && a.Vote.Voter != string(c.dev) {
					return true
				}
			}
		}
		return false
	}},
	{"VoteDelay's delayed vote comes due while the party is offline", func(t *testing.T, c twinCase) bool {
		if c.b.VoteDelay == 0 || c.b.OfflineFrom == 0 || c.w.CBC != nil {
			return false
		}
		// The same deal without the window shows when the vote was
		// cast (submission minus delay) and when it came due.
		job := c.job
		job.Opts.Behaviors = map[chain.Addr]party.Behavior{c.dev: {VoteDelay: c.b.VoteDelay}}
		w, err := engine.Build(job.Spec, job.Opts)
		if err != nil {
			t.Fatal(err)
		}
		w.Run()
		for _, r := range receiptsBy(w, c.dev) {
			if a, ok := r.Tx.Args.(timelock.CommitArgs); ok && a.Vote.Voter == string(c.dev) {
				cast := r.SubmittedAt - sim.Time(c.b.VoteDelay)
				return cast < c.b.OfflineFrom && r.SubmittedAt >= c.b.OfflineFrom && r.SubmittedAt < c.b.OfflineUntil
			}
		}
		return false
	}},
	{"AbortImmediately's abort vote decides the CBC deal", func(_ *testing.T, c twinCase) bool {
		if !c.b.AbortImmediately || c.w.CBC == nil {
			return false
		}
		d := c.w.CBC.Deal(c.w.Spec.ID)
		return d != nil && d.Status == escrow.StatusAborted && c.r.Phases.DecisionEnd < sim.Time(c.job.Opts.Patience)
	}},
	{"SkipRefundPoke arms no refund poke in a timelock deal", func(_ *testing.T, c twinCase) bool {
		return c.b.SkipRefundPoke && c.w.CBC == nil
	}},
	{"CrashAt's crash lands inside the run", func(_ *testing.T, c twinCase) bool {
		return c.b.CrashAt > 0 && c.b.CrashAt < c.r.EndedAt
	}},
	{"the offline window opens and closes inside the run", func(_ *testing.T, c twinCase) bool {
		return c.b.OfflineFrom > 0 && c.b.OfflineUntil < c.r.EndedAt
	}},
}

// TestDeviationTwins runs every deviationCatalog entry (and the two
// edge-case rows of twinRows) on one party of 200 seeded deals per
// protocol, and requires each deal's outcome, balances, gas, drain time
// and scheduler step count to match the digest pinned in
// testdata/deviation_twins.json — which was generated by this test
// against the party drivers as they stood before deviations became
// strategies, so the test needs no second copy of those drivers, and
// regenerated once since, when the timelock refund floor went back to
// t0 + N·Δ and moved the drain time of every deal with a shorter relay
// depth. Each
// edge case in twinEdges must be exercised by at least one deal.
// -update rewrites the fixture.
func TestDeviationTwins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 6,000 deals")
	}
	fees := &FeeOptions{}
	fees.defaults()
	probe, err := NewGenerator(GenOptions{Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	nRows := len(twinRows(probe.Job(0), fees))
	got := make(map[string][]string)
	hits := make([]int, len(twinEdges))
	for _, proto := range []string{"timelock", "cbc"} {
		for row := 0; row < nRows; row++ {
			var cell string
			for i := 0; i < twinDeals; i++ {
				job, dev, b := twinJob(t, proto, row, i)
				if cell == "" {
					cell = fmt.Sprintf("%s/%02d %s", proto, row, fieldNames(b))
				}
				w, err := engine.Build(job.Spec, job.Opts)
				if err != nil {
					t.Fatal(err)
				}
				r := w.Run()
				got[cell] = append(got[cell], twinDigest(w, r))
				c := twinCase{proto: proto, job: job, dev: dev, b: b, w: w, r: r}
				for e, edge := range twinEdges {
					if edge.witness(t, c) {
						hits[e]++
					}
				}
			}
		}
	}
	for e, edge := range twinEdges {
		if hits[e] == 0 {
			t.Errorf("no deal exercises %q", edge.name)
		}
		t.Logf("%4d deals: %s", hits[e], edge.name)
	}
	if *update {
		flat := make(map[string]string, len(got))
		for cell, ds := range got {
			flat[cell] = strings.Join(ds, " ")
		}
		buf, err := json.MarshalIndent(flat, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deviationTwinsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(deviationTwinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, cell := range slices.Sorted(maps.Keys(want)) {
		for i, d := range strings.Fields(want[cell]) {
			if i >= len(got[cell]) || got[cell][i] != d {
				t.Errorf("%s: deal %d moved", cell, i)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cells, fixture has %d", len(got), len(want))
	}
}

// fieldNames names a behaviour's non-zero fields.
func fieldNames(b party.Behavior) string {
	v := reflect.ValueOf(b)
	var names []string
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsZero() {
			names = append(names, v.Type().Field(i).Name)
		}
	}
	return strings.Join(names, "+")
}
