package engine

import (
	"fmt"
	"sort"
	"strings"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
	"xdeal/internal/trace"
)

// PhaseTimes records when each deal phase completed (absolute sim time;
// zero when the phase never completed).
type PhaseTimes struct {
	Start         sim.Time
	EscrowEnd     sim.Time
	TransferEnd   sim.Time
	ValidationEnd sim.Time
	DecisionEnd   sim.Time
}

// InDelta expresses a phase-completion time in Δ units from the start.
func (p PhaseTimes) InDelta(t sim.Time, delta sim.Duration) float64 {
	if t == 0 || delta == 0 {
		return 0
	}
	return float64(t-p.Start) / float64(delta)
}

// Result is the evaluated outcome of one deal execution.
type Result struct {
	Spec      *deal.Spec
	Outcomes  map[string]escrow.Status // escrow key -> final status, one per escrow of the deal
	Compliant map[chain.Addr]bool

	// Property violations, empty when the protocol behaved correctly.
	SafetyViolations   []string
	LivenessViolations []string

	// FungibleDelta maps party -> escrow key -> balance change.
	FungibleDelta map[chain.Addr]map[string]int64
	// FinalTokenOwners maps escrow key -> token id -> final owner.
	FinalTokenOwners map[string]map[string]chain.Addr

	AllCommitted bool
	AllAborted   bool

	Phases PhaseTimes
	Gas    *gas.Meter
	// DealGas is the gas attributable to this deal alone: identical to
	// Gas.Used() in a private world, label-filtered on shared substrates
	// where Gas mixes every cohabiting deal's activity.
	DealGas uint64
	// CBCGas is the certified blockchain's own bookkeeping cost.
	CBCGas uint64
	// DealFees is the fee-market spend (base fees burned + tips paid)
	// attributable to this deal; zero without a fee market.
	DealFees uint64
	// Fees summarizes world-wide fee-market activity (totals plus one
	// tip/queuing-delay sample per included transaction). Only filled
	// for private worlds — on a shared substrate the chains mix many
	// deals, so the arena collects the substrate-level summary once.
	Fees *FeeSummary
	// EndedAt is the simulation time when the run drained.
	EndedAt sim.Time
	// Attribution decomposes decision latency into cause buckets
	// (protocol wait, block queueing, fee pricing-out, adversary,
	// scheduling slack; see trace.Attribute). Computed post-hoc from
	// retained receipts — always on, never perturbs the run — and nil
	// when the deal never reached a decision.
	Attribution *trace.Attribution
}

// evaluate computes the Result after the simulation drains.
func (w *World) evaluate() *Result {
	spec := w.Spec
	r := &Result{
		Spec:             spec,
		Outcomes:         make(map[string]escrow.Status),
		Compliant:        make(map[chain.Addr]bool),
		FungibleDelta:    make(map[chain.Addr]map[string]int64),
		FinalTokenOwners: make(map[string]map[string]chain.Addr),
		Gas:              w.GasMerged(),
		DealGas:          w.DealGas(),
		DealFees:         w.DealFees(),
		EndedAt:          w.Sched.Now(),
	}
	if w.CBC != nil {
		r.CBCGas = w.CBC.Meter().Used()
	}
	if w.opts.LabelPrefix == "" {
		r.Fees = CollectFees(w.Chains)
	}

	for _, p := range spec.Parties {
		r.Compliant[p] = w.Parties[p].Compliant()
	}

	// Final escrow outcomes.
	keys := make([]string, 0, len(w.Managers))
	for key := range w.Managers {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	r.AllCommitted, r.AllAborted = true, true
	for _, key := range keys {
		st := w.Managers[key].Deal(spec.ID)
		status := escrow.StatusUnknown
		if st != nil {
			status = st.Status
		}
		r.Outcomes[key] = status
		if status != escrow.StatusCommitted {
			r.AllCommitted = false
		}
		if status != escrow.StatusAborted {
			r.AllAborted = false
		}
	}

	// Balance deltas and final token ownership.
	for _, p := range spec.Parties {
		r.FungibleDelta[p] = make(map[string]int64)
		for key, f := range w.Fungibles {
			r.FungibleDelta[p][key] = int64(f.BalanceOf(p)) - int64(w.initialFungible[p][key])
		}
	}
	for key, n := range w.NFTs {
		owners := make(map[string]chain.Addr)
		for id := range w.initialTokens[key] {
			owners[id] = n.OwnerOf(id)
		}
		r.FinalTokenOwners[key] = owners
	}

	w.checkSafety(r)
	w.checkLiveness(r)
	w.fillPhases(r)
	r.Attribution = w.attribute(r)
	return r
}

// checkSafety evaluates Property 1 for every compliant party:
// if any outgoing asset was transferred, all incoming assets were; if any
// incoming asset was not transferred, no outgoing asset was.
func (w *World) checkSafety(r *Result) {
	spec := w.Spec
	for _, p := range spec.Parties {
		if !r.Compliant[p] {
			continue
		}
		paid := w.paidSomething(r, p)
		missed := w.missedIncoming(r, p)
		if paid && missed {
			v := fmt.Sprintf(
				"party %s: outgoing assets transferred but incoming assets missing (Property 1)", p)
			// A DoS outage longer than Δ breaks the synchrony assumption
			// timelock safety is proved under (§5): parties can miss an
			// entire phase window through no protocol fault. Annotate so
			// the flag is distinguishable from a genuine protocol bug.
			if w.outageBeyondDelta > 0 {
				v += fmt.Sprintf(" [synchrony-broken: %d-tick DoS outage exceeds Δ=%d]",
					w.outageBeyondDelta, spec.Delta)
			}
			r.SafetyViolations = append(r.SafetyViolations, v)
		}
	}
	// Cross-check with balances when outcomes are uniform.
	if r.AllCommitted {
		for _, p := range spec.Parties {
			if !r.Compliant[p] {
				continue
			}
			for _, key := range sortedKeys(w.Fungibles) {
				in, out := w.plan.For(p).Flow(key)
				want := int64(in) - int64(out)
				if got := r.FungibleDelta[p][key]; got != want {
					r.SafetyViolations = append(r.SafetyViolations, fmt.Sprintf(
						"party %s: balance delta %+d at %s, expected %+d after commit", p, got, key, want))
				}
			}
		}
	}
	if r.AllAborted {
		for _, p := range spec.Parties {
			if !r.Compliant[p] {
				continue
			}
			for _, key := range sortedKeys(w.Fungibles) {
				if got := r.FungibleDelta[p][key]; got != 0 {
					r.SafetyViolations = append(r.SafetyViolations, fmt.Sprintf(
						"party %s: balance delta %+d at %s after full abort", p, got, key))
				}
			}
		}
	}
}

// paidSomething reports whether any of p's outgoing value actually left
// it: a committed escrow where p owes assets, confirmed by balances.
func (w *World) paidSomething(r *Result, p chain.Addr) bool {
	for key, status := range r.Outcomes {
		if status != escrow.StatusCommitted {
			continue
		}
		if _, out := w.plan.For(p).Flow(key); out > 0 && r.FungibleDelta[p][key] < 0 {
			return true
		}
		// Non-fungible: a token p initially owned now belongs to another.
		for id, owner := range w.initialTokens[key] {
			if owner == p && r.FinalTokenOwners[key][id] != p {
				return true
			}
		}
	}
	return false
}

// missedIncoming reports whether any escrow delivering assets to p failed
// to commit.
func (w *World) missedIncoming(r *Result, p chain.Addr) bool {
	for _, in := range w.plan.For(p).Incoming {
		if r.Outcomes[in.Key] != escrow.StatusCommitted {
			return true
		}
	}
	return false
}

// checkLiveness evaluates Property 2: every escrow actually holding a
// compliant party's deposits must be finalized (committed or aborted) by
// the time the simulation drains. An escrow left active with only a
// deviator's deposits (e.g. one it poisoned with corrupt Dinfo, keeping
// everyone else out) is the deviator's own loss, not a violation.
func (w *World) checkLiveness(r *Result) {
	for _, p := range w.Spec.Parties {
		if !r.Compliant[p] {
			continue
		}
		for _, ob := range w.plan.For(p).Obligations {
			key := ob.Key
			if st := r.Outcomes[key]; st != escrow.StatusActive {
				continue
			}
			state := w.Managers[key].Deal(w.Spec.ID)
			if state == nil {
				continue
			}
			locked := state.Deposited[p] > 0
			//xdeal:unordered existence check: the loop only raises locked to true and writes nothing else, so visit order cannot reach the report
			for _, owner := range state.AbortOwner {
				if owner == p {
					locked = true
					break
				}
			}
			if locked {
				r.LivenessViolations = append(r.LivenessViolations, fmt.Sprintf(
					"party %s: deposits still locked at %s (Property 2)", p, key))
			}
		}
	}
}

// fillPhases converts the observed milestones into phase-completion times.
func (w *World) fillPhases(r *Result) {
	r.Phases.Start = w.startAt
	for _, t := range w.escrowedAt {
		if t > r.Phases.EscrowEnd {
			r.Phases.EscrowEnd = t
		}
	}
	for _, t := range w.transferredAt {
		if t > r.Phases.TransferEnd {
			r.Phases.TransferEnd = t
		}
	}
	for _, t := range w.validatedAt {
		if t > r.Phases.ValidationEnd {
			r.Phases.ValidationEnd = t
		}
	}
	for _, t := range w.outcomeAt {
		if t > r.Phases.DecisionEnd {
			r.Phases.DecisionEnd = t
		}
	}
}

// sortedKeys returns m's keys in ascending order, so report loops
// visit escrow keys deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary renders a human-readable report of the run.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deal %s: ", r.Spec.ID)
	switch {
	case r.AllCommitted:
		b.WriteString("COMMITTED everywhere\n")
	case r.AllAborted:
		b.WriteString("ABORTED everywhere\n")
	default:
		b.WriteString("MIXED outcomes\n")
	}
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  escrow %-30s %s\n", k, r.Outcomes[k])
	}
	for _, p := range r.Spec.Parties {
		tag := "compliant"
		if !r.Compliant[p] {
			tag = "DEVIATING"
		}
		fmt.Fprintf(&b, "  party %-10s %-10s", p, tag)
		keys := make([]string, 0, len(r.FungibleDelta[p]))
		for k := range r.FungibleDelta[p] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := r.FungibleDelta[p][k]; d != 0 {
				fmt.Fprintf(&b, " %+d@%s", d, k)
			}
		}
		b.WriteString("\n")
	}
	for _, v := range r.SafetyViolations {
		fmt.Fprintf(&b, "  SAFETY VIOLATION: %s\n", v)
	}
	for _, v := range r.LivenessViolations {
		fmt.Fprintf(&b, "  LIVENESS VIOLATION: %s\n", v)
	}
	return b.String()
}

// Atomic reports whether the finalized escrows agree: no escrow committed
// while another aborted. Escrows never finalized (unknown or still
// active) do not count — an unclaimed refund is a liveness matter, not an
// atomicity one.
func (r *Result) Atomic() bool {
	anyCommitted, anyAborted := false, false
	//xdeal:unordered existence fold: the switch only raises the two flags to true, so visit order cannot affect the conjunction
	for _, st := range r.Outcomes {
		switch st {
		case escrow.StatusCommitted:
			anyCommitted = true
		case escrow.StatusAborted:
			anyAborted = true
		}
	}
	return !(anyCommitted && anyAborted)
}
