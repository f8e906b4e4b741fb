package engine

import (
	"sort"

	"xdeal/internal/chain"
	"xdeal/internal/obs"
	"xdeal/internal/sig"
)

// RegisterMetrics folds an isolated world's substrate-level counters —
// chains, fee markets, hedging pools, signature work — into a registry.
// The world owns its substrate alone, so this is the substrate's
// registration; shared substrates register once through
// Substrate.RegisterMetrics instead.
func (w *World) RegisterMetrics(reg *obs.Registry) {
	if w == nil {
		return
	}
	w.sub.RegisterMetrics(reg)
}

// RegisterMetrics folds the substrate's counters into a registry,
// walking components in sorted-key order so the traversal itself is
// deterministic. Chains and hedging pools are shared by every deal on
// the substrate, so arenas call this exactly once per substrate.
func (s *Substrate) RegisterMetrics(reg *obs.Registry) {
	if reg == nil || s == nil {
		return
	}
	ids := make([]string, 0, len(s.Chains))
	for id := range s.Chains {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.Chains[chain.ID(id)].RegisterMetrics(reg)
	}
	keys := make([]string, 0, len(s.hedges))
	for k := range s.hedges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.hedges[k].RegisterMetrics(reg)
	}
	registerSigWork(reg, s.memo)
	for _, c := range s.cbcs {
		c.RegisterMetrics(reg)
	}
}

// registerSigWork reports what the deals' signature checks cost: how
// many verifications contracts asked for (each charged as gas) and how
// many of them repeated a check made earlier in the same substrate.
func registerSigWork(reg *obs.Registry, memo *sig.Memo) {
	verifications, hits := memo.Stats()
	reg.Counter("sig.verifications").Add(verifications)
	reg.Counter("sig.verify_memo_hits").Add(hits)
}
