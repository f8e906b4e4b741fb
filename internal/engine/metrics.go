package engine

import (
	"sort"

	"xdeal/internal/chain"
	"xdeal/internal/hedge"
	"xdeal/internal/obs"
	"xdeal/internal/sig"
)

// RegisterMetrics folds a world's substrate-level counters — chains,
// fee markets, hedging pools, signature work — into a registry, walking
// components in sorted-key order so the traversal itself is
// deterministic. Used for isolated worlds; shared substrates register
// once through Substrate.RegisterMetrics instead.
func (w *World) RegisterMetrics(reg *obs.Registry) {
	if reg == nil || w == nil {
		return
	}
	registerChains(reg, w.Chains)
	registerHedges(reg, w.Hedges)
	registerSigWork(reg, w.memo)
	w.CBC.RegisterMetrics(reg)
}

// RegisterMetrics folds the shared substrate's counters into a
// registry. Chains and hedging pools are shared by every deal on the
// substrate, so arenas call this exactly once per substrate.
func (s *Substrate) RegisterMetrics(reg *obs.Registry) {
	if reg == nil || s == nil {
		return
	}
	registerChains(reg, s.Chains)
	registerHedges(reg, s.hedges)
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

func registerChains(reg *obs.Registry, chains map[chain.ID]*chain.Chain) {
	ids := make([]string, 0, len(chains))
	for id := range chains {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		chains[chain.ID(id)].RegisterMetrics(reg)
	}
}

func registerHedges(reg *obs.Registry, hedges map[string]*hedge.Manager) {
	keys := make([]string, 0, len(hedges))
	for k := range hedges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		hedges[k].RegisterMetrics(reg)
	}
}
