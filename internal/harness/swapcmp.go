package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/gas"
	"xdeal/internal/htlc"
	"xdeal/internal/party"
	"xdeal/internal/sim"
	"xdeal/internal/token"
)

// htlcWorld wires chains and HTLC managers for a swap-shaped spec.
type htlcWorld struct {
	sched    *sim.Scheduler
	chains   map[chain.ID]*chain.Chain
	managers map[string]chain.Addr
}

// buildHTLCWorld funds parties and deploys one HTLC contract per asset.
func buildHTLCWorld(spec *deal.Spec, seed uint64) *htlcWorld {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	w := &htlcWorld{
		sched:    sched,
		chains:   make(map[chain.ID]*chain.Chain),
		managers: make(map[string]chain.Addr),
	}
	for _, a := range spec.Escrows() {
		c, ok := w.chains[a.Chain]
		if !ok {
			c = chain.New(chain.Config{
				ID: a.Chain, BlockInterval: 10,
				Delays:   chain.SyncPolicy{Min: 1, Max: 5},
				Schedule: gas.DefaultSchedule(),
			}, sched, rng)
			w.chains[a.Chain] = c
		}
		key := a.Key()
		addr := chain.Addr("htlc-" + string(a.Escrow))
		w.managers[key] = addr
		c.MustDeploy(a.Token, token.NewFungible("bank"))
		c.MustDeploy(addr, htlc.New(a.Token, a.Kind))
	}
	// A rejected funding transaction would skew the whole gas
	// comparison; fail loudly, matching MustDeploy above.
	mustLand := func(r *chain.Receipt) {
		if r.Err != nil {
			panic(fmt.Sprintf("htlc world setup transaction %s.%s rejected: %v",
				r.Tx.Contract, r.Tx.Method, r.Err))
		}
	}
	plan := deal.NewPlan(spec)
	for _, p := range spec.Parties {
		for _, ob := range plan.For(p).Obligations {
			c := w.chains[ob.Asset.Chain]
			c.Submit(&chain.Tx{Sender: "bank", Contract: ob.Asset.Token,
				Method: token.MethodMint, Label: engine.LabelSetup,
				Args:      token.MintArgs{To: p, Amount: ob.Amount},
				OnReceipt: mustLand})
			c.Submit(&chain.Tx{Sender: p, Contract: ob.Asset.Token,
				Method: token.MethodApprove, Label: engine.LabelSetup,
				Args:      token.ApproveArgs{Operator: w.managers[ob.Key], Allowed: true},
				OnReceipt: mustLand})
		}
	}
	sched.Run()
	return w
}

// RunSwapComparison settles the same n-party circular swap with the
// timelock deal protocol and with the HTLC baseline, reporting gas.
func RunSwapComparison(n int, seed uint64) (SwapComparisonRow, error) {
	row := SwapComparisonRow{N: n}

	// Deal protocol.
	spec := deal.RingSpec(n, sim.Time(3000+500*n), 1000)
	dealRow, err := RunGas(spec, engine.Options{Seed: seed, Protocol: party.ProtoTimelock})
	if err != nil {
		return row, err
	}
	row.DealSigVerifs = dealRow.CommitSigVerifs
	row.DealGas = dealRow.EscrowGas + dealRow.TransferGas + dealRow.CommitGas
	row.DealCommitted = dealRow.Committed

	// HTLC baseline on the same shape.
	spec = deal.RingSpec(n, 0, 0)
	if err := htlc.Supports(spec); err != nil {
		return row, err
	}
	row.HTLCSupported = true
	hw := buildHTLCWorld(spec, seed)
	swap, err := htlc.NewSwap(htlc.SwapConfig{
		Spec: spec, Chains: hw.chains, Managers: hw.managers,
		Sched: hw.sched, Delta: 1000,
	})
	if err != nil {
		return row, err
	}
	swap.Start()
	hw.sched.Run()
	row.HTLCCommitted = swap.Claims == len(spec.Transfers)
	merged := gas.NewMeter(gas.DefaultSchedule())
	for _, c := range hw.chains {
		merged.Merge(c.Meter())
	}
	row.HTLCSigVerifs = merged.Count(gas.OpSigVerify)
	row.HTLCGas = merged.UsedByLabel(party.LabelEscrow) + merged.UsedByLabel(party.LabelCommit) + merged.UsedByLabel(party.LabelAbort)

	// Expressiveness: HTLC must reject the broker deal.
	row.BrokerRejected = htlc.Supports(deal.BrokerSpec(1, 1)) != nil
	return row, nil
}

// SwapVsDeal renders the §8 comparison across swap sizes.
func SwapVsDeal(w io.Writer, ns []int, seed uint64) error {
	fmt.Fprintln(w, "§8 baseline: circular swap settled as a deal (timelock) vs HTLC")
	fmt.Fprintln(w)
	rows := make([]SwapComparisonRow, len(ns))
	if err := pool().Map(len(ns), func(i int) error {
		row, err := RunSwapComparison(ns[i], seed)
		rows[i] = row
		return err
	}); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tdeal sig.ver.\tdeal gas\thtlc sig.ver.\thtlc gas\tboth settle")
	for i, row := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%v\n",
			ns[i], row.DealSigVerifs, row.DealGas, row.HTLCSigVerifs, row.HTLCGas,
			row.DealCommitted && row.HTLCCommitted)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nHTLC claims verify hash preimages (no signatures); deals buy generality")
	fmt.Fprintln(w, "(brokers, auctions) that swaps cannot express — htlc.Supports rejects them.")
	return nil
}
