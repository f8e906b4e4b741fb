package fleet

import (
	"reflect"
	"slices"
	"testing"

	"xdeal/internal/engine"
)

// resetJobs is a mixed adversarial fee-market population with outages,
// and a job whose build fails in the middle, so a reused substrate also
// meets a deal after a failed build.
func resetJobs(t *testing.T) []Job {
	t.Helper()
	gen, err := NewGenerator(GenOptions{Seed: 5, Protocol: "mixed", AdversaryRate: 0.4, DoSRate: 0.2, Fees: &FeeOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Jobs(60)
	broken := *jobs[30].Spec
	broken.Parties = nil
	jobs[30].Spec = &broken
	return jobs
}

// TestResetEqualsFresh runs a population on one worker, whose substrate
// is reset and reused from deal to deal, and each deal again on a
// substrate of its own: every record, fee summary and race tally must be
// equal.
func TestResetEqualsFresh(t *testing.T) {
	jobs := resetJobs(t)
	var got []world
	if err := stream(len(jobs), 1, nil, func(i int, w *world) error {
		w.runJob(jobs[i])
		return nil
	}, func(w *world) { got = append(got, world{rec: w.rec, fees: w.fees, inter: w.inter}) }); err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		want := world{sub: new(engine.Substrate)}
		want.runJob(job)
		want.sub = nil
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("deal %d on a reused substrate %+v, fresh %+v", i, got[i], want)
		}
	}
}

// TestRecordsIndependentOfJobOrder runs a population on one worker in
// index order and in reverse: each deal meets a substrate that ran a
// different deal before it, and its record must not change.
func TestRecordsIndependentOfJobOrder(t *testing.T) {
	jobs := resetJobs(t)
	forward := RunJobs(jobs, 1)
	reversed := slices.Clone(jobs)
	slices.Reverse(reversed)
	backward := RunJobs(reversed, 1)
	for i, rec := range forward {
		if back := backward[len(jobs)-1-i]; !reflect.DeepEqual(rec, back) {
			t.Errorf("deal %d in index order %+v, in reverse %+v", rec.Index, rec, back)
		}
	}
}
