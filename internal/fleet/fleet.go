package fleet

import (
	"fmt"

	"xdeal/internal/arena"
	"xdeal/internal/chain"
	"xdeal/internal/engine"
	"xdeal/internal/feemarket"
	"xdeal/internal/obs"
	"xdeal/internal/party"
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

	// DealFees is the fee-market spend attributable to this deal (burn
	// plus tips); zero without a fee market. The world's fee flows and
	// race tallies fold once per world, not per record.
	DealFees uint64

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
	rec.DealFees = r.DealFees
	rec.Spans = newPhaseSpans(r.Phases, r.Spec.Delta)
	if a := r.Attribution; a != nil && a.Total > 0 {
		rec.CritPath = a
	}
	return rec
}

// world is one task of a sweep: one isolated deal or one arena. It
// sits in a chunk slot from its run to its fold; only its own pool task
// writes it, and the fold reads it after the pool has drained.
type world struct {
	rec Record // an isolated deal's record
	// arena is an arena's result; its outcomes become records as they
	// fold, numbered from first, the population index of its deal 0.
	arena *arena.Result
	first int
	proto string
	// fees and inter are the world's fee flows and interference tally;
	// an isolated world tallies only its front-run races.
	fees  *engine.FeeSummary
	inter arena.Interference
	// metrics is the world's private registry shard; nil unless the
	// sweep collects metrics.
	metrics *obs.Registry
	// sub is the substrate of the worker running the world, which an
	// isolated deal resets and builds on; what the deal leaves in the
	// slot must not alias it.
	sub *engine.Substrate
}

// runJob runs one isolated deal into w. A fee-market job gets its race
// hook here, not from the generator: the hook draws no randomness, so
// the job Generator.Job rebuilds for a replay runs the same deal
// without it.
func (w *world) runJob(job Job) {
	if job.Opts.World.FeeMarket != nil {
		job.Opts.Adaptive = &party.AdaptiveHooks{
			OnFrontRun: func(_ chain.Addr, _ string, bid uint64, won bool) { w.inter.Race(bid, won) },
		}
	}
	w.rec = Record{
		Index:        job.Index,
		Seed:         job.Seed,
		SpecID:       job.Spec.ID,
		Shape:        job.Shape,
		Protocol:     job.Opts.Protocol.String(),
		Adversaries:  job.Adversaries,
		Outage:       job.Outage,
		Sequenceable: job.Sequenceable,
	}
	e, err := w.sub.Reset(job.Opts.Seed, job.Opts.World).BuildOn(job.Spec, job.Opts)
	if err != nil {
		// A failed build is a population observation: recorded, with
		// the job's labels, not fatal to the sweep.
		w.rec.Err = fmt.Sprintf("build: %v", err)
		return
	}
	r := e.Run()
	w.rec = withResult(w.rec, r)
	w.fees = r.Fees
	if w.metrics != nil {
		e.RegisterMetrics(w.metrics)
	}
}

// RunJobs executes the jobs across the worker pool and returns one
// record per job, in job order. Each job's world is an isolated
// single-threaded simulation, so runs share nothing; the output is
// identical for any worker count.
func RunJobs(jobs []Job, workers int) []Record {
	records := make([]Record, 0, len(jobs))
	// runJob records a failed build rather than failing, so stream
	// returns no error here.
	_ = stream(len(jobs), workers, nil, func(i int, w *world) error {
		w.runJob(jobs[i])
		return nil
	}, func(w *world) { records = append(records, w.rec) })
	return records
}

// Sweep synthesizes opts.Deals scenarios from the master seed, executes
// them across the worker pool, and aggregates population statistics.
// The report depends only on (Gen, Deals, Arena) — never on Workers.
//
// Isolated and arena sweeps run through the same loop, one world (an
// isolated deal, or an arena of DealsPerArena deals) per pool task, and
// fold each world into one aggregate in index order. Worlds run in
// bounded chunks, so memory is constant in the population size, and the
// streamed report is byte-identical to folding every world at once at
// any worker count.
func Sweep(opts Options) (*Report, error) {
	if opts.Deals < 0 {
		return nil, fmt.Errorf("fleet: negative deal count %d", opts.Deals)
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
	n, run := opts.Deals, func(i int, w *world) error {
		w.runJob(gen.Job(i))
		return nil
	}
	if opts.Arena != nil {
		if n, run, err = arenaWorlds(gen, *opts.Arena, opts.Deals, agg); err != nil {
			return nil, err
		}
	}
	if err := stream(n, opts.Workers, opts.Obs, run, agg.addWorld); err != nil {
		return nil, err
	}
	return agg.Report(), nil
}

// stream runs worlds 0..n-1 across the worker pool in bounded chunks
// and folds each, in index order, once its chunk's pool has drained.
// Memory is constant in n: one chunk of slots, reused, and one substrate
// per worker, handed to each world it runs. Each world's
// metrics shard merges into the sweep's registry in index order, and
// merges commute, so the fold and the registry are identical at any
// worker count. With a stage timer attached, each chunk's wall time
// splits into run and aggregate stages. The first error, in index
// order, stops the loop.
func stream(n, workers int, ob *ObsOptions, run func(i int, w *world) error, fold func(*world)) error {
	pool := Pool{Workers: workers}
	chunk := max(pool.Size(n)*8, 64)
	slots := make([]world, min(chunk, n))
	subs := make([]engine.Substrate, pool.Size(n))
	stages, reg := ob.stages(), ob.metrics()
	for lo := 0; lo < n; lo += chunk {
		batch := slots[:min(chunk, n-lo)]
		stopRun := stages.Start("run")
		err := pool.mapOn(len(batch), func(worker, k int) error {
			w := &batch[k]
			*w = world{sub: &subs[worker]}
			if reg != nil {
				w.metrics = obs.NewRegistry()
			}
			return run(lo+k, w)
		})
		for k := range batch {
			reg.Merge(batch[k].metrics)
		}
		stopRun()
		if err != nil {
			return err
		}
		stopAgg := stages.Start("aggregate")
		for k := range batch {
			fold(&batch[k])
		}
		stopAgg()
	}
	return nil
}
