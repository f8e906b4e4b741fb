package fleet

import (
	"bytes"
	"strings"
	"testing"

	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/sim"
	"xdeal/internal/trace"
)

// critPathBlock renders just the critical-path section of a sweep's
// report at the given worker count.
func critPathBlock(t *testing.T, workers int) string {
	t.Helper()
	opts := sweepOpts(60, workers)
	rep, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CriticalPath == nil || len(rep.CriticalPath.Slices) == 0 {
		t.Fatal("sweep produced no critical-path block")
	}
	var buf bytes.Buffer
	fprintCriticalPath(&buf, rep.CriticalPath)
	return buf.String()
}

// TestCriticalPathBlockIndependentOfWorkerCount: the attribution
// aggregation folds in deal-index order regardless of which worker ran
// which deal, so the rendered block is byte-identical at any pool
// size. Under -race this also exercises the post-hoc span derivation
// for data races.
func TestCriticalPathBlockIndependentOfWorkerCount(t *testing.T) {
	want := critPathBlock(t, 1)
	for _, workers := range []int{4, 16} {
		if got := critPathBlock(t, workers); got != want {
			t.Fatalf("critical-path block at %d workers diverges from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
	for _, bucket := range trace.Buckets {
		if !strings.Contains(want, bucket.String()) {
			t.Fatalf("rendered block lacks bucket %q:\n%s", bucket, want)
		}
	}
}

// TestCritPathRecordConservation: every decided deal's record carries
// the engine's attribution, and it conserves its total exactly, bucket
// by bucket in report order — the fleet-side restatement of the engine
// invariant, checked across a mixed adversarial population.
func TestCritPathRecordConservation(t *testing.T) {
	opts := sweepOpts(60, 4)
	g, err := NewGenerator(opts.Gen)
	if err != nil {
		t.Fatal(err)
	}
	records := RunJobs(g.Jobs(opts.Deals), 4)
	decided := 0
	for _, rec := range records {
		if rec.CritPath == nil {
			continue
		}
		decided++
		cp := rec.CritPath
		var sum sim.Duration
		for _, b := range trace.Buckets {
			sum += cp.ByBucket(b)
		}
		if sum != cp.Total || cp.Sum() != cp.Total {
			t.Fatalf("deal %d: buckets sum to %d (Sum %d), total %d: %+v", rec.Index, sum, cp.Sum(), cp.Total, cp)
		}
		if cp.Total <= 0 {
			t.Fatalf("deal %d: non-positive total: %+v", rec.Index, cp)
		}
	}
	if decided == 0 {
		t.Fatal("no deal in the population carried an attribution")
	}
}

// TestRecordCritPathNilSafe: undecided deals attribute nothing — a nil
// or zero-total attribution leaves the record's CritPath nil — and a
// decided deal's record carries its attribution as the engine made it.
func TestRecordCritPathNilSafe(t *testing.T) {
	spec := deal.BrokerSpec(100, 10)
	for _, a := range []*trace.Attribution{nil, {}} {
		if rec := withResult(Record{}, &engine.Result{Spec: spec, Attribution: a}); rec.CritPath != nil {
			t.Fatalf("attribution %+v produced a record: %+v", a, rec.CritPath)
		}
	}
	a := &trace.Attribution{ProtocolWait: 30, Adversary: 70, Total: 100}
	if rec := withResult(Record{}, &engine.Result{Spec: spec, Attribution: a}); rec.CritPath != a {
		t.Fatalf("record does not carry the attribution: %+v", rec.CritPath)
	}
}
