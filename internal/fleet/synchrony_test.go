package fleet

import (
	"strings"
	"testing"

	"xdeal/internal/engine"
)

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
