package fleet

import (
	"bytes"
	"strings"
	"testing"

	"xdeal/internal/engine"
	"xdeal/internal/obs"
)

// sweepJSON runs one sweep and renders its report as JSON bytes.
func sweepJSON(t *testing.T, opts Options) []byte {
	t.Helper()
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestShardedArenaReportsByteIdentical pins the tentpole determinism
// contract: the shard count changes only which goroutine executes a
// transaction, never any observable outcome, so arena sweep reports are
// byte-for-byte identical at -shards 1, 4, and 16. Run under -race this
// also exercises the parallel execute phase for data races — including
// the substrate's verify memo, which shards of one block consult
// concurrently and whose counters must not depend on who got there first.
func TestShardedArenaReportsByteIdentical(t *testing.T) {
	base := Options{
		Deals:   30,
		Workers: 1,
		Gen:     GenOptions{Seed: 7, Fees: &FeeOptions{}},
	}
	var want []byte
	var wantAsked, wantHits uint64
	for _, shards := range []int{1, 4, 16} {
		opts := base
		opts.Arena = &ArenaOptions{DealsPerArena: 15, Chains: 3, Shards: shards}
		reg := obs.NewRegistry()
		opts.Obs = &ObsOptions{Metrics: reg}
		got := sweepJSON(t, opts)
		asked, hits := reg.Counter("sig.verifications").Value(), reg.Counter("sig.verify_memo_hits").Value()
		if want == nil {
			want, wantAsked, wantHits = got, asked, hits
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("arena report at shards=%d differs from shards=1 (%d vs %d bytes)",
				shards, len(got), len(want))
		}
		if asked != wantAsked || hits != wantHits {
			t.Fatalf("signature work at shards=%d is (%d asked, %d memo hits), at shards=1 (%d, %d)",
				shards, asked, hits, wantAsked, wantHits)
		}
	}
}

// TestShardedIsolatedReportsByteIdentical is the isolated-mode twin of
// the arena determinism test.
func TestShardedIsolatedReportsByteIdentical(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 8} {
		opts := Options{
			Deals:   40,
			Workers: 1,
			Gen:     GenOptions{Seed: 7, Shards: shards},
		}
		got := sweepJSON(t, opts)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("isolated report at shards=%d differs from shards=1", shards)
		}
	}
}

// TestSynchronyBrokenAnnotationSeed1Deal143 pins the one known
// pre-existing Property 1 flag: seed 1's deal 143 (ring-3 timelock) is
// hit by a DoS outage longer than its Δ, which breaks the synchrony
// assumption timelock safety is proved under (§5). The flag must carry
// the synchrony-broken annotation so it reads as a model-assumption
// breach, not a protocol bug.
func TestSynchronyBrokenAnnotationSeed1Deal143(t *testing.T) {
	gen, err := NewGenerator(GenOptions{
		Seed: 1, Protocol: "mixed", AdversaryRate: 0.3, DoSRate: 0.15, MaxParties: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := gen.Job(143)
	if !job.Outage {
		t.Fatalf("seed-1 deal 143 no longer draws an outage; the known-flag pin is stale")
	}
	w, err := engine.Build(job.Spec, job.Opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res := w.Run()
	p1 := 0
	for _, v := range res.SafetyViolations {
		if !strings.Contains(v, "Property 1") {
			continue
		}
		p1++
		if !strings.Contains(v, "synchrony-broken") {
			t.Fatalf("Property 1 flag lacks the synchrony-broken annotation: %q", v)
		}
		if !strings.Contains(v, "Δ=") {
			t.Fatalf("annotation should name the deal's Δ: %q", v)
		}
	}
	if p1 == 0 {
		t.Fatalf("seed-1 deal 143 no longer violates Property 1; the known-flag pin is stale (violations: %v)", res.SafetyViolations)
	}
}

// TestSynchronyAnnotationAbsentWithinDelta guards the other direction:
// deals whose outages (if any) fit within Δ must never gain the
// annotation, or every genuine P1 bug would be explained away.
func TestSynchronyAnnotationAbsentWithinDelta(t *testing.T) {
	gen, err := NewGenerator(GenOptions{Seed: 2, AdversaryRate: 0.5, DoSRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		job := gen.Job(i)
		w, err := engine.Build(job.Spec, job.Opts)
		if err != nil {
			continue
		}
		res := w.Run()
		for _, v := range res.SafetyViolations {
			if strings.Contains(v, "synchrony-broken") {
				t.Fatalf("deal %d: annotation without an over-Δ outage: %q", i, v)
			}
		}
	}
}
