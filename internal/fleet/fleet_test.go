package fleet

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

// sweepOpts is the canonical randomized population used across tests.
func sweepOpts(deals, workers int) Options {
	return Options{
		Deals:   deals,
		Workers: workers,
		Gen: GenOptions{
			Seed:          42,
			Protocol:      "mixed",
			AdversaryRate: 0.3,
			DoSRate:       0.15,
		},
	}
}

// renderedReport runs a sweep and renders both output formats, so
// equality checks cover every aggregate the fleet computes.
func renderedReport(t *testing.T, opts Options) string {
	t.Helper()
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFleetDeterministicAcrossWorkerCounts: the same master seed must
// produce an identical report for any pool size — the fleet only
// parallelizes execution, never semantics. Run under -race this also
// exercises the pool for data races.
func TestFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	want := renderedReport(t, sweepOpts(60, 1))
	for _, workers := range []int{2, 4, 16} {
		if got := renderedReport(t, sweepOpts(60, workers)); got != want {
			t.Fatalf("report at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestSweepRepeatedRunsIdentical: repeated runs at one seed agree;
// a different seed produces a different population.
func TestSweepRepeatedRunsIdentical(t *testing.T) {
	a := renderedReport(t, sweepOpts(30, 4))
	b := renderedReport(t, sweepOpts(30, 4))
	if a != b {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", a, b)
	}
	other := sweepOpts(30, 4)
	other.Gen.Seed = 43
	if c := renderedReport(t, other); c == a {
		t.Fatal("different master seeds produced identical populations")
	}
}

// TestZeroDealSweep: an empty population aggregates and renders without
// panicking, with zero rates everywhere.
func TestZeroDealSweep(t *testing.T) {
	rep, err := Sweep(sweepOpts(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Runs != 0 || rep.Total.CommitRate() != 0 || rep.Total.Aborted != 0 {
		t.Fatalf("empty sweep not empty: %+v", rep.Total)
	}
	if !rep.Clean() {
		t.Fatalf("empty sweep has violations: %v", rep.Violations)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if rep.Gas.Count != 0 || rep.DeltaTime.Count != 0 {
		t.Fatalf("empty sweep has samples: gas=%d time=%d", rep.Gas.Count, rep.DeltaTime.Count)
	}
}

// TestNegativeDealCountRejected: Sweep validates its inputs.
func TestNegativeDealCountRejected(t *testing.T) {
	if _, err := Sweep(Options{Deals: -1}); err == nil {
		t.Fatal("negative deal count accepted")
	}
	if _, err := Sweep(Options{Deals: 1, Gen: GenOptions{Protocol: "htlc"}}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Sweep(Options{Deals: 1, Gen: GenOptions{AdversaryRate: 1.5}}); err == nil {
		t.Fatal("out-of-range adversary rate accepted")
	}
}

// TestGeneratorRejectsNonFiniteRates: a NaN or infinite rate is outside
// [0, 1] like any other, not a population without adversaries or
// outages.
func TestGeneratorRejectsNonFiniteRates(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewGenerator(GenOptions{AdversaryRate: x}); err == nil || !strings.Contains(err.Error(), "adversary rate") {
			t.Errorf("adversary rate %v: error %v, want a rejection", x, err)
		}
		if _, err := NewGenerator(GenOptions{DoSRate: x}); err == nil || !strings.Contains(err.Error(), "DoS rate") {
			t.Errorf("DoS rate %v: error %v, want a rejection", x, err)
		}
	}
}

// TestFleetAllAdversarialNeverCommits: when every party refuses to
// vote, no deal can commit (unanimity is required), commit rate is 0%,
// and — crucially — deviators hurting only themselves produces no
// compliant-party property violations.
func TestFleetAllAdversarialNeverCommits(t *testing.T) {
	gen, err := NewGenerator(GenOptions{Seed: 7, Protocol: "mixed"})
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Jobs(20)
	for i := range jobs {
		jobs[i].Opts.Behaviors = make(map[chain.Addr]party.Behavior)
		for _, p := range jobs[i].Spec.Parties {
			jobs[i].Opts.Behaviors[p] = party.Behavior{SkipVoting: true}
		}
		jobs[i].Adversaries = len(jobs[i].Spec.Parties)
	}
	rep := Aggregate(RunJobs(jobs, 4))
	if rep.Total.Runs != 20 {
		t.Fatalf("runs = %d, want 20", rep.Total.Runs)
	}
	if rep.Total.Committed != 0 || rep.Total.CommitRate() != 0 {
		t.Fatalf("all-adversarial population committed %d deals", rep.Total.Committed)
	}
	if rep.Adversarial.Runs != 20 || rep.FullyCompliant.Runs != 0 {
		t.Fatalf("population slicing wrong: %+v / %+v", rep.Adversarial, rep.FullyCompliant)
	}
	if !rep.Clean() {
		t.Fatalf("deviators' self-inflicted aborts flagged as violations: %v", rep.Violations)
	}
}

// TestViolationCountingFlagsSeeds: a population seeded with the §5
// fixed-timeout ablation (a deliberately broken protocol rule) produces
// real safety or atomicity failures; every violating run must be
// flagged with its seed. Synthetic records check the bookkeeping for
// all three properties.
func TestViolationCountingFlagsSeeds(t *testing.T) {
	// Real violations from the broken fixed-timeout rule: a 3-ring where
	// one party votes at the last minute (cf. TestNaiveTimeoutsViolateSafety).
	var jobs []Job
	idx := 0
	for _, voteDelay := range []sim.Duration{2860, 2880, 2900, 2920, 2940} {
		for seed := uint64(0); seed < 20; seed++ {
			spec := deal.RingSpec(3, 2000, 1000)
			jobs = append(jobs, Job{
				Index: idx, Seed: seed, Shape: ShapeRing, Spec: spec,
				Sequenceable: true,
				Opts: engine.Options{
					Seed:         seed,
					Protocol:     party.ProtoTimelock,
					FixedTimeout: true,
					Behaviors: map[chain.Addr]party.Behavior{
						"p00": {VoteDelay: voteDelay},
					},
				},
				Adversaries: 1,
			})
			idx++
		}
	}
	rep := Aggregate(RunJobs(jobs, 4))
	if rep.Clean() && rep.Total.Mixed == 0 {
		t.Fatal("fixed-timeout ablation produced no violations and no mixed outcomes; the sweep cannot detect broken protocols")
	}
	for _, v := range rep.Violations {
		if v.SpecID == "" || v.Property == "" || v.Detail == "" {
			t.Fatalf("violation missing replay context: %+v", v)
		}
	}

	// Synthetic records: each property violation type is counted and
	// carries its seed for replay.
	records := []Record{
		{Index: 0, Seed: 101, SpecID: "a", Protocol: "timelock", Sequenceable: true,
			Committed: true, SafetyViolations: []string{"party x: hurt"}},
		{Index: 1, Seed: 102, SpecID: "b", Protocol: "cbc",
			LivenessViolations: []string{"party y: locked", "party z: locked"}},
		{Index: 2, Seed: 103, SpecID: "c", Protocol: "cbc", Sequenceable: true},
		{Index: 3, Seed: 104, SpecID: "d", Protocol: "timelock", Err: "build: boom"},
		{Index: 4, Seed: 105, SpecID: "e", Protocol: "timelock", Sequenceable: false},
	}
	rep = Aggregate(records)
	byProp := make(map[string]int)
	for _, v := range rep.Violations {
		byProp[v.Property]++
	}
	if byProp["safety (P1)"] != 1 || byProp["liveness (P2)"] != 2 ||
		byProp["strong liveness (P3)"] != 1 || byProp["error"] != 1 {
		t.Fatalf("violation tally wrong: %v", byProp)
	}
	seen := make(map[uint64]bool)
	for _, v := range rep.Violations {
		seen[v.Seed] = true
	}
	for _, want := range []uint64{101, 102, 103, 104} {
		if !seen[want] {
			t.Fatalf("violating seed %d not flagged (got %v)", want, rep.Violations)
		}
	}
	if seen[105] {
		t.Fatal("non-sequenceable compliant abort flagged as a Property 3 violation")
	}
}

// TestGeneratorSpecsValid: every generated spec passes full validation
// (structural, timelock params, strong connectivity), and every
// generated behavior is genuinely non-compliant.
func TestGeneratorSpecsValid(t *testing.T) {
	gen, err := NewGenerator(GenOptions{
		Seed: 99, Protocol: "mixed", AdversaryRate: 0.5, DoSRate: 0.3, MaxParties: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := make(map[string]int)
	for i := 0; i < 300; i++ {
		job := gen.Job(i)
		shapes[job.Shape]++
		if err := job.Spec.Validate(); err != nil {
			t.Fatalf("job %d (%s): invalid spec: %v", i, job.Shape, err)
		}
		if err := job.Spec.ValidateTimelock(); err != nil {
			t.Fatalf("job %d (%s): invalid timelock params: %v", i, job.Shape, err)
		}
		if !job.Spec.WellFormed() {
			t.Fatalf("job %d (%s): spec not strongly connected:\n%s", i, job.Shape, job.Spec.Matrix())
		}
		adv := 0
		for _, b := range job.Opts.Behaviors {
			// Every catalog entry must be able to disrupt a deal:
			// either an outright deviation, or a vote so late it can
			// miss every deadline (engine-compliant but disruptive —
			// which is why such runs are excluded from Property 3).
			if b.Compliant() && b.VoteDelay == 0 {
				t.Fatalf("job %d: generated adversary behavior %+v cannot disrupt anything", i, b)
			}
			adv++
		}
		if adv != job.Adversaries {
			t.Fatalf("job %d: Adversaries=%d but %d behaviors", i, job.Adversaries, adv)
		}
		if _, err := engine.Build(job.Spec, job.Opts); err != nil {
			t.Fatalf("job %d (%s): engine rejects generated scenario: %v", i, job.Shape, err)
		}
	}
	for _, shape := range []string{ShapeRing, ShapeBroker, ShapeAuction, ShapeDense, ShapeRandom} {
		if shapes[shape] == 0 {
			t.Fatalf("shape %s never generated in 300 draws: %v", shape, shapes)
		}
	}
}

// TestRecordCountsEveryEscrow: a record's escrow count, taken from the
// run's outcomes, is the m Spec.Escrows derives, for isolated and arena
// deals alike, adversaries and outages included.
func TestRecordCountsEveryEscrow(t *testing.T) {
	gen, err := NewGenerator(GenOptions{
		Seed: 3, Protocol: "mixed", AdversaryRate: 0.5, DoSRate: 0.3, MaxParties: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Jobs(120)
	for i, rec := range RunJobs(jobs, 2) {
		if want := len(jobs[i].Spec.Escrows()); rec.Escrows != want || rec.Err != "" {
			t.Fatalf("job %d: record counts %d escrows (err %q), spec has %d", i, rec.Escrows, rec.Err, want)
		}
	}
	ao := ArenaOptions{DealsPerArena: 20, Chains: 3}
	if err := ao.defaults(); err != nil {
		t.Fatal(err)
	}
	res, err := runArena(gen, ao, 0, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outcomes {
		if got, want := arenaRecord(out.Index, "mixed", out, false).Escrows, len(out.Spec.Escrows()); got != want {
			t.Fatalf("arena deal %d: record counts %d escrows, spec has %d", out.Index, got, want)
		}
	}
}

// TestGeneratorJobDeterminism: Job(i) is a pure function of (master
// seed, i) — jobs can be rebuilt for replay from a flagged index alone.
func TestGeneratorJobDeterminism(t *testing.T) {
	mk := func() *Generator {
		g, err := NewGenerator(GenOptions{Seed: 5, Protocol: "mixed", AdversaryRate: 0.4, DoSRate: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for _, i := range []int{0, 1, 17, 250} {
		// Draw b's jobs in reverse order to prove index independence.
		ja, jb := a.Job(i), b.Job(i)
		if ja.Seed != jb.Seed || ja.Shape != jb.Shape || ja.Spec.ID != jb.Spec.ID ||
			ja.Opts.Seed != jb.Opts.Seed || ja.Adversaries != jb.Adversaries {
			t.Fatalf("job %d not reproducible: %+v vs %+v", i, ja, jb)
		}
	}
}

// TestFleetSweepPopulationClean: the acceptance bar — a randomized population
// with adversaries and outages produces zero safety/liveness violations
// among compliant parties, and fully compliant sequenceable runs all
// commit (Property 3).
func TestFleetSweepPopulationClean(t *testing.T) {
	deals := 120
	if testing.Short() {
		deals = 30
	}
	rep, err := Sweep(sweepOpts(deals, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		var buf bytes.Buffer
		rep.Fprint(&buf)
		t.Fatalf("population not clean:\n%s", buf.String())
	}
	if rep.Total.Runs != deals {
		t.Fatalf("ran %d deals, want %d", rep.Total.Runs, deals)
	}
	if rep.Total.Committed == 0 || rep.Total.Aborted == 0 {
		t.Fatalf("population degenerate (committed=%d aborted=%d); generator lost its variety",
			rep.Total.Committed, rep.Total.Aborted)
	}
}

// TestDistPercentiles: the percentile summary on a known sample. Count,
// bounds and mean are exact; percentiles are within the sketch's 2%.
func TestDistPercentiles(t *testing.T) {
	var s Sketch
	for i := 100; i >= 1; i-- { // unsorted input
		s.Add(float64(i))
	}
	d := s.Dist()
	if d.Count != 100 || d.Min != 1 || d.Max != 100 {
		t.Fatalf("bounds wrong: %+v", d)
	}
	for _, q := range []struct{ got, want float64 }{{d.P50, 50}, {d.P90, 90}, {d.P99, 99}} {
		if rel := q.got/q.want - 1; rel < -0.02 || rel > 0.02 {
			t.Fatalf("percentiles wrong: %+v", d)
		}
	}
	if d.Mean != 50.5 {
		t.Fatalf("mean = %v, want 50.5", d.Mean)
	}
	var empty Sketch
	if z := empty.Dist(); z.Count != 0 || z.Max != 0 {
		t.Fatalf("empty dist not zero: %+v", z)
	}
}

// TestPoolMapErrorsDeterministic: Map surfaces the lowest-index error
// regardless of worker count, and visits every index exactly once.
func TestPoolMapErrorsDeterministic(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		visited := make([]int32, 50)
		err := Pool{Workers: workers}.Map(50, func(i int) error {
			visited[i]++
			if i == 7 || i == 31 {
				return &indexError{i}
			}
			return nil
		})
		ie, ok := err.(*indexError)
		if !ok || ie.i != 7 {
			t.Fatalf("workers=%d: got %v, want error at index 7", workers, err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
	if err := (Pool{}).Map(0, func(int) error { panic("called") }); err != nil {
		t.Fatalf("empty map: %v", err)
	}
}

type indexError struct{ i int }

func (e *indexError) Error() string { return "boom" }

// TestBrokerChainSpecShape: the generalized broker chain keeps the
// paper's invariants — brokers enter with no assets, the digraph is
// strongly connected, and the deal settles under both protocols.
func TestBrokerChainSpecShape(t *testing.T) {
	for k := 1; k <= 3; k++ {
		spec := deal.BrokerChainSpec(k, 100, 5, 3000, 1000)
		if err := spec.ValidateTimelock(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !spec.WellFormed() {
			t.Fatalf("k=%d: not strongly connected", k)
		}
		if got := len(spec.Parties); got != k+2 {
			t.Fatalf("k=%d: %d parties, want %d", k, got, k+2)
		}
		// Brokers must have zero escrow obligations: their outgoing
		// value is funded by their incoming value, like Alice (§1.1).
		for _, p := range spec.Parties[1 : k+1] {
			for _, ob := range deal.NewPlan(spec).For(p).Obligations {
				if ob.Amount != 0 || len(ob.Tokens) != 0 {
					t.Fatalf("k=%d: broker %s has obligation %+v", k, p, ob)
				}
			}
		}
		for _, proto := range []party.Protocol{party.ProtoTimelock, party.ProtoCBC} {
			w, err := engine.Build(spec, engine.Options{Seed: 11, Protocol: proto, F: 1})
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, proto, err)
			}
			r := w.Run()
			if !r.AllCommitted {
				t.Fatalf("k=%d %s: broker chain did not commit:\n%s", k, proto, r.Summary())
			}
			if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
				t.Fatalf("k=%d %s: violations:\n%s", k, proto, r.Summary())
			}
		}
	}
}

// TestFleetCBCDepositDischarge is the regression test for the claim gap
// the fleet surfaced: when the recipient at an escrow crashes after
// voting, the compliant depositor itself must present the commit proof
// so its assets do not stay locked (Property 2).
func TestFleetCBCDepositDischarge(t *testing.T) {
	spec := deal.RingSpec(3, 2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Seed:     3,
		Protocol: party.ProtoCBC,
		F:        1,
		Behaviors: map[chain.Addr]party.Behavior{
			// p01 votes commit then crashes: it never claims its
			// incoming asset at p00's escrow.
			"p01": {CrashAt: 6200},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if len(r.SafetyViolations)+len(r.LivenessViolations) > 0 {
		t.Fatalf("crashing recipient locked a compliant deposit:\n%s", r.Summary())
	}
	if !r.Atomic() {
		t.Fatalf("mixed outcome:\n%s", r.Summary())
	}
}

// TestReportRendering: the human-readable report carries the headline
// numbers and the violation replay line when present.
func TestReportRendering(t *testing.T) {
	rep := Aggregate([]Record{
		{Index: 0, Seed: 11, SpecID: "ring-3/ring", Shape: ShapeRing, Protocol: "timelock",
			Sequenceable: true, Committed: true, Atomic: true, Gas: 1000, DeltaTime: 4},
		{Index: 1, Seed: 12, SpecID: "broker/broker", Shape: ShapeBroker, Protocol: "cbc",
			Sequenceable: true, Adversaries: 1, Aborted: true, Atomic: true, Gas: 3000, DeltaTime: 8,
			SafetyViolations: []string{"party p: hurt"}},
	})
	var buf bytes.Buffer
	rep.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"2 deals", "shape=ring", "protocol=cbc", "PROPERTY VIOLATIONS (1)", "seed 12", "safety (P1)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSerializedSeedTwins: SerializeRounds consumes no randomness, so a
// serialized population's deals are exact seed twins of the pipelined
// default — same shapes, same adversary draws, same outages. On a
// compliant-only mix the pipelining must be behavior-preserving, not
// just safe: every twin pair must reach the identical commit/abort
// outcome, the rounds only overlapping in time.
func TestSerializedSeedTwins(t *testing.T) {
	base := GenOptions{Seed: 21, Protocol: "mixed", AdversaryRate: 0, DoSRate: 0}
	serial := base
	serial.SerializeRounds = true
	gp, err := NewGenerator(base)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGenerator(serial)
	if err != nil {
		t.Fatal(err)
	}
	const deals = 40
	pipelined := RunJobs(gp.Jobs(deals), 4)
	serialized := RunJobs(gs.Jobs(deals), 4)
	var meanP, meanS float64
	for i := range pipelined {
		p, s := pipelined[i], serialized[i]
		if p.SpecID != s.SpecID || p.Shape != s.Shape || p.Protocol != s.Protocol {
			t.Fatalf("job %d not a seed twin: pipelined %s/%s/%s vs serialized %s/%s/%s",
				i, p.SpecID, p.Shape, p.Protocol, s.SpecID, s.Shape, s.Protocol)
		}
		if p.Committed != s.Committed || p.Aborted != s.Aborted {
			t.Errorf("job %d (%s, %s): pipelined committed=%v aborted=%v, serialized committed=%v aborted=%v",
				i, p.SpecID, p.Protocol, p.Committed, p.Aborted, s.Committed, s.Aborted)
		}
		if len(p.SafetyViolations)+len(p.LivenessViolations) > 0 {
			t.Errorf("job %d pipelined violations: %v %v", i, p.SafetyViolations, p.LivenessViolations)
		}
		meanP += p.DeltaTime
		meanS += s.DeltaTime
	}
	// Individual deals may pay a block or two for an optimistic transfer
	// that sorted ahead of its funding deposit; the population must
	// still decide no later on average than its strictly gated twin.
	if meanP > meanS {
		t.Errorf("pipelined population decides slower on average: %.3fΔ vs serialized %.3fΔ",
			meanP/deals, meanS/deals)
	}
}
