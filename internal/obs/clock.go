package obs

// Wall-clock and Go-runtime reads live in this file (and prof.go) only.
// internal/obs is a sanctioned wrapper under the noclock analyzer, like
// internal/sim: the readings below feed machine-local measurements (the
// sweep's stage timing, the benchmark's allocation counters), never the
// deterministic reports, so replay stays exact.

import (
	"runtime"
	"sync"
	"time"
)

// StageTimer accumulates wall-clock seconds per named stage of a sweep
// (run / aggregate). A nil StageTimer is a no-op, so the fleet times
// stages unconditionally.
type StageTimer struct {
	mu      sync.Mutex
	seconds map[string]float64
}

// NewStageTimer returns an empty timer.
func NewStageTimer() *StageTimer {
	return &StageTimer{seconds: make(map[string]float64)}
}

// Start begins timing a stage and returns the function that stops it,
// folding the elapsed wall time into the stage's running total.
func (t *StageTimer) Start(stage string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		d := time.Since(begin).Seconds()
		t.mu.Lock()
		t.seconds[stage] += d
		t.mu.Unlock()
	}
}

// Seconds returns the accumulated wall time for one stage.
func (t *StageTimer) Seconds(stage string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seconds[stage]
}

// MemStats is a sample of the allocator's cumulative counters: total
// bytes ever allocated and cumulative heap objects.
type MemStats struct {
	TotalAllocBytes uint64
	Mallocs         uint64
}

// ReadMemStats samples the Go runtime's allocator counters.
func ReadMemStats() MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemStats{
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
	}
}
