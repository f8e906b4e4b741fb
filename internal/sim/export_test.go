package sim

// Helpers only the tests use.

// RunFor executes events for d ticks from the current time.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now + d) }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
