package party_test

import (
	"reflect"
	"testing"

	"xdeal/internal/engine"
	"xdeal/internal/fleet"
)

// TestResetEqualsFresh runs a mixed adversarial population's deals one
// after another on one substrate, which resets and reuses its parties
// from deal to deal, and each deal again on a substrate of its own:
// after each run every party must be in the state its fresh twin is in,
// and the results must be equal.
func TestResetEqualsFresh(t *testing.T) {
	for _, gen := range []fleet.GenOptions{
		{Seed: 11, Protocol: "mixed", AdversaryRate: 0.5, DoSRate: 0.2, MaxParties: 6},
		{Seed: 11, Protocol: "mixed", AdversaryRate: 0.5, Fees: &fleet.FeeOptions{}},
	} {
		g, err := fleet.NewGenerator(gen)
		if err != nil {
			t.Fatal(err)
		}
		var sub engine.Substrate
		for _, job := range g.Jobs(40) {
			w, err := sub.Reset(job.Opts.Seed, job.Opts.World).BuildOn(job.Spec, job.Opts)
			if err != nil {
				t.Fatal(err)
			}
			got := w.Run()
			f, err := engine.Build(job.Spec, job.Opts)
			if err != nil {
				t.Fatal(err)
			}
			want := f.Run()
			for _, a := range job.Spec.Parties {
				if g, f := w.Parties[a].State(), f.Parties[a].State(); g != f {
					t.Errorf("deal %d, party %s after a reset:\n%s\nfresh:\n%s", job.Index, a, g, f)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("deal %d: result after a reset %+v, fresh %+v", job.Index, got, want)
			}
		}
	}
}
