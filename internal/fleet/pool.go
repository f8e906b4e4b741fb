// Package fleet executes populations of independent deal worlds
// concurrently and aggregates their outcomes into population statistics.
//
// Each engine world is a single-threaded deterministic simulation, so a
// fleet of worlds parallelizes trivially across a bounded worker pool:
// no locks are shared between runs, and results are collected by index
// so every aggregate is identical regardless of worker count. The
// package provides three layers:
//
//   - Pool: a bounded index-space worker pool (Map), also used by the
//     experiment harness to parallelize its sweeps;
//   - Generator: a seeded synthesizer of randomized deal scenarios —
//     spec shapes (rings, broker chains, auctions, dense matrices,
//     random digraphs) crossed with adversary mixes, protocols, delay
//     policies, and DoS outage windows;
//   - Sweep/Aggregator: fleet execution and population statistics
//     (commit/abort rates, gas and Δ-time percentiles, and Property 1–3
//     violations flagged with the seed that reproduces them).
//
// Sweep runs every population through one world runner. A world is one
// isolated deal, or in arena mode one shared world of DealsPerArena
// deals. Worlds run one per pool task, in chunks of max(8·workers, 64),
// each into its own slot of the chunk; once the chunk's pool drains,
// each world folds into the one Aggregator in index order: its records,
// then its fee flows and its interference tally. Memory is constant in
// the number of worlds, and the report is identical at any worker
// count. Each worker keeps one engine.Substrate for the whole sweep and
// resets it for each isolated deal it runs, so what one deal builds is
// reused by the next; a record is complete before its worker's next
// reset and aliases nothing the substrate reuses.
package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool over an index space. The zero value
// uses one worker per available CPU.
type Pool struct {
	// Workers is the concurrency bound; <= 0 means GOMAXPROCS.
	Workers int
}

// Size returns the effective worker count for n tasks.
func (p Pool) Size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map invokes fn(0..n-1) across the pool's workers and blocks until all
// calls return. Indices are handed out dynamically (work stealing), so
// uneven task costs balance across workers. If any calls fail, the
// error at the lowest index is returned — deterministically, regardless
// of scheduling.
func (p Pool) Map(n int, fn func(i int) error) error {
	return p.mapOn(n, func(_, i int) error { return fn(i) })
}

// mapOn is Map for a fn that also learns which worker, numbered from 0 up
// to Size(n), runs each call; one worker's calls never overlap.
func (p Pool) mapOn(n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.Size(n)
	errs := make([]error, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(0, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(k, i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
