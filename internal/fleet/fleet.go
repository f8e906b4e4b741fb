package fleet

import (
	"fmt"

	"xdeal/internal/arena"
	"xdeal/internal/engine"
	"xdeal/internal/feemarket"
	"xdeal/internal/obs"
	"xdeal/internal/trace"
)

// FeeOptions enables fee markets across a sweep: every generated world
// gets EIP-1559-style chains (tip-ordered blocks, base fee tracking
// block fullness), compliant parties escalate tips toward their
// timelock deadlines, and the front-runner slot of the adversary mix
// upgrades to a fee bidder that outbids its victims from TipBudget.
// The report gains an ordering-games block.
type FeeOptions struct {
	// BaseFee is each chain's initial base fee (default
	// feemarket.DefaultBaseFee).
	BaseFee uint64
	// TipBudget caps each fee bidder's total tip spend (default
	// arena.DefaultTipBudget).
	TipBudget uint64
}

// defaults resolves the zero values the report echoes.
func (f *FeeOptions) defaults() {
	if f.BaseFee == 0 {
		f.BaseFee = feemarket.DefaultBaseFee
	}
	if f.TipBudget == 0 {
		f.TipBudget = arena.DefaultTipBudget
	}
}

// FeeRecord is the fee-market slice of one deal run's outcome.
type FeeRecord struct {
	// DealFees is the spend attributable to this deal (burn + tips).
	DealFees uint64
	// Burned/Tipped total the run's world-wide fee flows; only filled
	// for isolated worlds (arena sweeps fold their shared worlds'
	// totals once per arena instead).
	Burned uint64
	Tipped uint64
	// Plain front-run races and fee-bid races run and won by this
	// run's parties (isolated mode; arenas meter through Interference).
	Races    int
	RaceWins int
	Bids     int
	BidWins  int
	// Samples holds (tip, queuing delay) per included transaction.
	Samples []engine.FeeSample
}

// Options configures a randomized fleet sweep. cmd/dealsweep reads it
// from a scenario file, which is its JSON encoding.
type Options struct {
	// Deals is the population size.
	Deals int
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Gen configures scenario synthesis.
	Gen GenOptions
	// Arena, when non-nil, switches the sweep to arena mode: instead of
	// isolated per-deal worlds, deals run in shared worlds of
	// Arena.DealsPerArena deals each, contending for the same chains
	// against adaptive adversaries (see internal/arena).
	Arena *ArenaOptions
	// Obs, when non-nil, attaches the observability layer (metrics
	// registry, flight recorder, stage timer). Strictly passive: the
	// Report is byte-identical with Obs set or nil. A scenario file
	// cannot set it: instruments are output destinations, not knobs.
	Obs *ObsOptions `json:"-"`
}

// Record is the trimmed, aggregation-ready outcome of one deal run.
// Seed is the job seed: rebuilding the job from (master seed, Index)
// or replaying with this record's engine options reproduces the run
// bit-for-bit.
type Record struct {
	Index       int
	Seed        uint64
	SpecID      string
	Shape       string
	Protocol    string
	Adversaries int
	Outage      bool
	// Sequenceable mirrors Job.Sequenceable: Property 3 is only
	// asserted over sequenceable, fully compliant, outage-free runs.
	Sequenceable bool

	Committed bool
	Aborted   bool
	Atomic    bool

	SafetyViolations   []string
	LivenessViolations []string

	Gas       uint64
	DeltaTime float64 // decision completion in Δ units
	EndedAt   int64

	// Spans is the deal's per-phase lifecycle timing in Δ units; nil
	// when no phase completed (e.g. an errored build).
	Spans *PhaseSpans

	// CritPath is the deal's decision-latency attribution (sim ticks,
	// buckets summing exactly to total); nil when the deal never
	// reached a decision.
	CritPath *trace.Attribution

	// Fee carries the run's fee-market outcome; nil without a fee
	// market.
	Fee *FeeRecord

	Err string
}

// withResult completes rec, which names the run, with what the engine
// result r says about it. Gas is the deal's own: the whole world's in an
// isolated run, its label-attributed share of the shared chains in an
// arena.
func withResult(rec Record, r *engine.Result) Record {
	rec.SpecID = r.Spec.ID
	rec.Committed, rec.Aborted, rec.Atomic = r.AllCommitted, r.AllAborted, r.Atomic()
	rec.SafetyViolations, rec.LivenessViolations = r.SafetyViolations, r.LivenessViolations
	rec.Gas = r.DealGas
	rec.DeltaTime = r.Phases.InDelta(r.Phases.DecisionEnd, r.Spec.Delta)
	rec.EndedAt = int64(r.EndedAt)
	rec.Spans = newPhaseSpans(r.Phases, r.Spec.Delta)
	if a := r.Attribution; a != nil && a.Total > 0 {
		rec.CritPath = a
	}
	return rec
}

// record evaluates one isolated run's engine result into a Record.
func record(job Job, r *engine.Result) Record {
	rec := withResult(Record{
		Index:        job.Index,
		Seed:         job.Seed,
		Shape:        job.Shape,
		Protocol:     job.Opts.Protocol.String(),
		Adversaries:  job.Adversaries,
		Outage:       job.Outage,
		Sequenceable: job.Sequenceable,
	}, r)
	if r.Fees != nil {
		fee := &FeeRecord{
			DealFees: r.DealFees,
			Burned:   r.Fees.Burned,
			Tipped:   r.Fees.Tipped,
			Samples:  r.Fees.Samples,
		}
		if t := job.races; t != nil {
			fee.Races, fee.RaceWins = t.races, t.raceWins
			fee.Bids, fee.BidWins = t.bids, t.bidWins
		}
		rec.Fee = fee
	}
	return rec
}

// RunJobs executes the jobs across the worker pool and returns one
// record per job, in job order. Each job's world is an isolated
// single-threaded simulation, so runs share nothing; the output is
// identical for any worker count.
func RunJobs(jobs []Job, workers int) []Record {
	return runJobs(jobs, workers, nil)
}

// runJobs is RunJobs with an optional metrics registry: each job's
// world registers into a private per-job registry, and the shards merge
// into reg in job order once the pool drains. Shard merges are
// commutative, so the merged registry is identical at any worker count.
func runJobs(jobs []Job, workers int, reg *obs.Registry) []Record {
	records := make([]Record, len(jobs))
	var shards []*obs.Registry
	if reg != nil {
		shards = make([]*obs.Registry, len(jobs))
	}
	// Map's per-index error slot is unused: a failed build is itself a
	// population observation, recorded rather than aborting the sweep.
	_ = Pool{Workers: workers}.Map(len(jobs), func(i int) error {
		job := jobs[i]
		w, err := engine.Build(job.Spec, job.Opts)
		if err != nil {
			records[i] = Record{
				Index: job.Index, Seed: job.Seed, SpecID: job.Spec.ID,
				Shape: job.Shape, Protocol: job.Opts.Protocol.String(),
				Adversaries: job.Adversaries,
				Err:         fmt.Sprintf("build: %v", err),
			}
			return nil
		}
		records[i] = record(job, w.Run())
		if shards != nil {
			shards[i] = obs.NewRegistry()
			w.RegisterMetrics(shards[i])
		}
		return nil
	})
	for _, shard := range shards {
		reg.Merge(shard)
	}
	return records
}

// Sweep synthesizes opts.Deals scenarios from the master seed, executes
// them across the worker pool, and aggregates population statistics.
// The report depends only on (Gen, Deals, Arena) — never on Workers.
//
// Execution streams: jobs run in bounded chunks and each record folds
// into the aggregate the moment its chunk completes, so memory is
// constant in the population size (a chunk of records, not all of
// them). Records fold in index order, which is why the streamed report
// is byte-identical to folding RunJobs' records at any worker count.
func Sweep(opts Options) (*Report, error) {
	if opts.Deals < 0 {
		return nil, fmt.Errorf("fleet: negative deal count %d", opts.Deals)
	}
	if opts.Arena != nil {
		return sweepArenas(opts)
	}
	gen, err := NewGenerator(opts.Gen)
	if err != nil {
		return nil, err
	}
	agg := NewAggregator()
	if f := gen.opts.Fees; f != nil {
		agg.EnableFees(f.BaseFee, f.TipBudget)
	}
	agg.EnableObs(opts.Obs.metrics(), opts.Obs.flight())
	stream(gen, opts.Deals, opts.Workers, agg, opts.Obs)
	return agg.Report(), nil
}

// stream synthesizes and executes jobs 0..n-1 from the generator in
// bounded chunks across the worker pool, folding each record into agg
// in index order. Memory is constant in n (one chunk of jobs and
// records at a time); the fold is identical to folding
// RunJobs(gen.Jobs(n), workers) at once, at any worker count. With
// the observability layer attached, per-chunk wall time is split into
// generate / run / aggregate stages, and each world's metrics merge
// into the registry in index order.
func stream(gen *Generator, n, workers int, agg *Aggregator, ob *ObsOptions) {
	stages := ob.stages()
	chunk := Pool{Workers: workers}.Size(n) * 8
	if chunk < 64 {
		chunk = 64
	}
	jobs := make([]Job, 0, chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		jobs = jobs[:0]
		stopGen := stages.Start("generate")
		for i := lo; i < hi; i++ {
			jobs = append(jobs, gen.Job(i))
		}
		stopGen()
		stopRun := stages.Start("run")
		recs := runJobs(jobs, workers, ob.metrics())
		stopRun()
		stopAgg := stages.Start("aggregate")
		for _, rec := range recs {
			agg.Add(rec)
		}
		stopAgg()
	}
}
