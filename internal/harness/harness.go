// Package harness runs the paper's experiments and renders their tables.
//
// The evaluation of "Cross-chain Deals and Adversarial Commerce" is an
// analytical cost model: Figure 4 (gas costs per phase for the timelock
// and CBC protocols) and Figure 7 (time costs in Δ units). The harness
// reproduces both by measuring executed protocols on the simulated
// multi-chain substrate, plus the §6.2 proof-of-work attack analysis, the
// certificate-vs-block-proof ablation, and the §8 comparison against the
// HTLC swap baseline.
package harness

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/fleet"
	"xdeal/internal/gas"
	"xdeal/internal/party"
	"xdeal/internal/pow"
	"xdeal/internal/sim"
)

// Workers bounds the worker pool the harness sweeps run on; 0 (the
// default) uses one worker per CPU. Each sweep point is an independent
// single-threaded world, so results are identical for any setting.
var Workers = 0

// pool returns the sweep worker pool.
func pool() fleet.Pool { return fleet.Pool{Workers: Workers} }

// GasRow is the measured per-phase gas profile of one protocol execution:
// one row of Figure 4.
type GasRow struct {
	Protocol string
	N, M, T  int // parties, escrow contracts, transfers
	F        int // CBC fault tolerance (0 for timelock)

	EscrowWrites    uint64
	TransferWrites  uint64
	CommitSigVerifs uint64
	CommitWrites    uint64
	ValidationGas   uint64 // always 0: validation is party-side (§7.1)

	EscrowGas   uint64
	TransferGas uint64
	CommitGas   uint64
	TotalGas    uint64

	Committed bool
}

// RunGas executes a deal and extracts its Figure 4 row.
func RunGas(spec *deal.Spec, opts engine.Options) (GasRow, error) {
	w, err := engine.Build(spec, opts)
	if err != nil {
		return GasRow{}, err
	}
	r := w.Run()
	m := r.Gas
	row := GasRow{
		Protocol: opts.Protocol.String(),
		N:        len(spec.Parties),
		M:        len(spec.Escrows()),
		T:        len(spec.Transfers),
		F:        opts.F,

		EscrowWrites:    m.CountByLabel(party.LabelEscrow, gas.OpWrite),
		TransferWrites:  m.CountByLabel(party.LabelTransfer, gas.OpWrite),
		CommitSigVerifs: m.CountByLabel(party.LabelCommit, gas.OpSigVerify),
		CommitWrites:    m.CountByLabel(party.LabelCommit, gas.OpWrite),

		EscrowGas:   m.UsedByLabel(party.LabelEscrow),
		TransferGas: m.UsedByLabel(party.LabelTransfer),
		CommitGas:   m.UsedByLabel(party.LabelCommit),
		TotalGas:    m.Used(),
		Committed:   r.AllCommitted,
	}
	if opts.Protocol == party.ProtoTimelock {
		row.F = 0
	}
	return row, nil
}

// Fig4 reproduces Figure 4: the per-phase gas cost table for both
// protocols on the same workload (an n-party deal over m escrow
// contracts). Expected shapes, from the paper:
//
//	Timelock: O(m) escrow writes, O(t) transfer writes, no validation
//	          gas, O(m·n²) commit signature verifications + O(m) writes.
//	CBC:      same escrow/transfer/validation, O(m·(2f+1)) commit
//	          signature verifications + O(m) writes.
func Fig4(w io.Writer, n, m, f int, seed uint64) error {
	spec := deal.DenseSpec(n, m, sim.Time(3000+500*n), 1000)

	tl, err := RunGas(spec, engine.Options{Seed: seed, Protocol: party.ProtoTimelock})
	if err != nil {
		return err
	}
	cb, err := RunGas(spec, engine.Options{Seed: seed, Protocol: party.ProtoCBC, F: f})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Figure 4: gas costs (n=%d parties, m=%d contracts, t=%d transfers, f=%d)\n\n",
		tl.N, tl.M, tl.T, f)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Protocol\tEscrow\tTransfer\tValidation\tCommit")
	fmt.Fprintf(tw, "Timelock\t%d writes\t%d writes\tnone\t%d sig.ver. + %d writes\n",
		tl.EscrowWrites, tl.TransferWrites, tl.CommitSigVerifs, tl.CommitWrites)
	fmt.Fprintf(tw, "CBC\t%d writes\t%d writes\tnone\t%d sig.ver. + %d writes\n",
		cb.EscrowWrites, cb.TransferWrites, cb.CommitSigVerifs, cb.CommitWrites)
	tw.Flush()
	fmt.Fprintf(w, "\npaper:   Timelock O(m) | O(t) | none | O(mn²) sig.ver. + O(m) writes\n")
	fmt.Fprintf(w, "paper:   CBC      O(m) | O(t) | none | O(m(2f+1)) sig.ver. + O(m) writes\n")
	fmt.Fprintf(w, "here:    m=%d, t=%d, n=%d ⇒ mn²=%d, m(2f+1)=%d\n",
		tl.M, tl.T, tl.N, tl.M*tl.N*tl.N, cb.M*(2*f+1))
	return nil
}

// SweepCommitGasByN measures commit-phase signature verifications as n
// grows (ring deals, m = n), for both protocols. The timelock curve grows
// quadratically per contract; the CBC curve stays flat at 2f+1 per
// contract — the crossover of §9 ("it will usually be more expensive to
// commit a CBC deal than a timelock deal" when 2f+1 > n²).
func SweepCommitGasByN(ns []int, f int, seed uint64) ([]GasRow, []GasRow, error) {
	tl := make([]GasRow, len(ns))
	cb := make([]GasRow, len(ns))
	// Each (n, protocol) point is an independent world: fan the 2·|ns|
	// runs out across the fleet pool.
	err := pool().Map(2*len(ns), func(i int) error {
		n := ns[i/2]
		spec := deal.RingSpec(n, sim.Time(3000+500*n), 1000)
		if i%2 == 0 {
			row, err := RunGas(spec, engine.Options{Seed: seed, Protocol: party.ProtoTimelock})
			tl[i/2] = row
			return err
		}
		row, err := RunGas(spec, engine.Options{Seed: seed, Protocol: party.ProtoCBC, F: f})
		cb[i/2] = row
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return tl, cb, nil
}

// SweepCommitGasByF measures CBC commit verifications as the committee
// grows at fixed n.
func SweepCommitGasByF(n int, fs []int, seed uint64) ([]GasRow, error) {
	out := make([]GasRow, len(fs))
	err := pool().Map(len(fs), func(i int) error {
		spec := deal.RingSpec(n, sim.Time(3000+500*n), 1000)
		row, err := RunGas(spec, engine.Options{Seed: seed, Protocol: party.ProtoCBC, F: fs[i]})
		out[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FprintSweep renders a sweep as a small series table.
func FprintSweep(w io.Writer, title, xName string, xs []int, rows []GasRow) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tm\tcommit sig.ver.\tsig.ver. per contract\tcommit gas\n", xName)
	for i, r := range rows {
		per := float64(r.CommitSigVerifs) / float64(r.M)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%d\n", xs[i], r.M, r.CommitSigVerifs, per, r.CommitGas)
	}
	tw.Flush()
}

// TimeRow is one row of Figure 7: per-phase completion times in Δ units.
type TimeRow struct {
	Protocol   string
	Mode       string // "forwarded" | "altruistic" | "cbc"
	N          int
	Escrow     float64
	Transfer   float64
	Validation float64
	Commit     float64 // decision completion, in Δ after validation end
	Total      float64
	Committed  bool
}

// RunTime executes a deal under near-Δ network latency so that each
// protocol hop costs a visible fraction of Δ, and reports phase durations
// in Δ units. The paper's Figure 7 bounds: escrow ≤ Δ, transfer ≤ t·Δ
// (or Δ concurrent), validation ≤ Δ, commit O(n)Δ for forwarded timelock
// voting, Δ for altruistic voting, O(1)Δ for the CBC.
func RunTime(spec *deal.Spec, opts engine.Options, mode string) (TimeRow, error) {
	delta := spec.Delta
	// Hop latency close to Δ/2 so per-hop costs register on the Δ scale.
	if opts.World.Delays == nil {
		opts.World.Delays = chain.SyncPolicy{Min: delta / 3, Max: delta / 2}
	}
	if opts.CBCDelays == nil {
		opts.CBCDelays = opts.World.Delays
	}
	if opts.World.BlockInterval <= 0 {
		opts.World.BlockInterval = delta / 10
	}
	w, err := engine.Build(spec, opts)
	if err != nil {
		return TimeRow{}, err
	}
	r := w.Run()
	ph := r.Phases
	row := TimeRow{
		Protocol:   opts.Protocol.String(),
		Mode:       mode,
		N:          len(spec.Parties),
		Escrow:     ph.InDelta(ph.EscrowEnd, delta),
		Transfer:   ph.InDelta(ph.TransferEnd, delta) - ph.InDelta(ph.EscrowEnd, delta),
		Validation: ph.InDelta(ph.ValidationEnd, delta) - ph.InDelta(ph.TransferEnd, delta),
		Commit:     ph.InDelta(ph.DecisionEnd, delta) - ph.InDelta(ph.ValidationEnd, delta),
		Total:      ph.InDelta(ph.DecisionEnd, delta),
		Committed:  r.AllCommitted,
	}
	if row.Transfer < 0 {
		row.Transfer = 0
	}
	if row.Validation < 0 {
		row.Validation = 0
	}
	return row, nil
}

// Fig7 reproduces Figure 7's delay table on an n-party ring: the timelock
// protocol with incentive-minimal (forwarded) voting, with altruistic
// direct voting, and the CBC protocol.
func Fig7(w io.Writer, n int, seed uint64) error {
	rows, err := Fig7Rows(n, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 7: delays in Δ units (n=%d ring, hop latency ≈ Δ/2)\n\n", n)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Protocol\tEscrow\tTransfer\tValidation\tCommit\tTotal")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s (%s)\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Protocol, r.Mode, r.Escrow, r.Transfer, r.Validation, r.Commit, r.Total)
	}
	tw.Flush()
	fmt.Fprintf(w, "\npaper: escrow Δ | transfer tΔ or Δ | validation Δ | commit O(n)Δ (timelock) vs O(1)Δ (CBC)\n")
	return nil
}

// Fig7Rows computes the three Figure 7 configurations, fanned out
// across the fleet pool.
func Fig7Rows(n int, seed uint64) ([]TimeRow, error) {
	t0 := sim.Time(40000)
	delta := sim.Duration(1000)
	rows := make([]TimeRow, 3)
	err := pool().Map(3, func(i int) error {
		spec := deal.RingSpec(n, t0, delta)
		var row TimeRow
		var err error
		switch i {
		case 0:
			row, err = RunTime(spec, engine.Options{Seed: seed, Protocol: party.ProtoTimelock}, "forwarded")
		case 1:
			behaviors := make(map[chain.Addr]party.Behavior)
			for _, p := range spec.Parties {
				behaviors[p] = party.Behavior{Altruistic: true}
			}
			row, err = RunTime(spec, engine.Options{
				Seed: seed, Protocol: party.ProtoTimelock, Behaviors: behaviors,
			}, "altruistic")
		case 2:
			row, err = RunTime(spec, engine.Options{
				Seed: seed, Protocol: party.ProtoCBC, F: 1, Patience: 200000,
			}, "cbc")
		}
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PoWAttack reproduces the §6.2 analysis: the fake proof-of-abort attack
// success probability as a function of the adversary's hash power and the
// required confirmation depth, plus the confirmations needed to push the
// risk below thresholds (deeper for higher-value deals).
func PoWAttack(w io.Writer, alphas []float64, ks []int, trials int, seed uint64) {
	fmt.Fprintf(w, "§6.2 PoW private-mining attack: success probability (trials=%d, 3 vote blocks)\n\n", trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "α \\ k")
	for _, k := range ks {
		fmt.Fprintf(tw, "\t%d", k)
	}
	fmt.Fprintln(tw)
	for _, a := range alphas {
		fmt.Fprintf(tw, "%.2f", a)
		for _, k := range ks {
			p := pow.SuccessProbability(seed, pow.RaceParams{
				Alpha: a, VoteBlocks: 3, Confirmations: k,
			}, trials)
			fmt.Fprintf(tw, "\t%.3f", p)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintf(w, "\nconfirmations required (α=0.30): ")
	var parts []string
	for _, risk := range []float64{0.10, 0.03, 0.01} {
		k, p := pow.RequiredConfirmations(seed, 0.30, 3, risk, trials, 64)
		parts = append(parts, fmt.Sprintf("risk≤%.2f → k=%d (est %.3f)", risk, k, p))
	}
	fmt.Fprintln(w, strings.Join(parts, ", "))
	fmt.Fprintln(w, "higher-value deals demand lower risk, hence more confirmations (paper §6.2)")
}

// AblationRow compares the two CBC proof formats at one committee size.
type AblationRow struct {
	F                int
	Reconfigs        int
	CertSigVerifs    uint64
	BlockSigVerifs   uint64
	CertCommitGas    uint64
	BlockCommitGas   uint64
	BlocksInSpan     int
	CertCommitted    bool
	BlockIsCommitted bool
}

// ProofAblation measures the §6.2 optimization: status certificates vs
// block-subsequence proofs, on the same broker deal.
func ProofAblation(f, reconfigs int, seed uint64) (AblationRow, error) {
	row := AblationRow{F: f, Reconfigs: reconfigs}

	spec := deal.BrokerSpec(2000, 1000)
	w, err := engine.Build(spec, engine.Options{
		Seed: seed, Protocol: party.ProtoCBC, F: f,
		ProofFormat: party.ProofStatus, Reconfigurations: reconfigs,
	})
	if err != nil {
		return row, err
	}
	r := w.Run()
	row.CertSigVerifs = r.Gas.CountByLabel(party.LabelCommit, gas.OpSigVerify)
	row.CertCommitGas = r.Gas.UsedByLabel(party.LabelCommit)
	row.CertCommitted = r.AllCommitted

	spec = deal.BrokerSpec(2000, 1000)
	w, err = engine.Build(spec, engine.Options{
		Seed: seed, Protocol: party.ProtoCBC, F: f,
		ProofFormat: party.ProofBlocks, Reconfigurations: reconfigs,
	})
	if err != nil {
		return row, err
	}
	r = w.Run()
	row.BlockSigVerifs = r.Gas.CountByLabel(party.LabelCommit, gas.OpSigVerify)
	row.BlockCommitGas = r.Gas.UsedByLabel(party.LabelCommit)
	row.BlockIsCommitted = r.AllCommitted
	row.BlocksInSpan = int(w.CBC.Height())
	return row, nil
}

// Ablation renders the proof-format comparison across committee sizes.
func Ablation(w io.Writer, fs []int, seed uint64) error {
	fmt.Fprintln(w, "§6.2 proof ablation: status certificate vs block-subsequence proof (broker deal)")
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "f\tcert sig.ver.\tblock sig.ver.\tcert commit gas\tblock commit gas")
	for _, f := range fs {
		row, err := ProofAblation(f, 0, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n",
			f, row.CertSigVerifs, row.BlockSigVerifs, row.CertCommitGas, row.BlockCommitGas)
	}
	tw.Flush()
	fmt.Fprintln(w, "\ncertificates cost (k+1)(2f+1) verifications; block proofs cost a quorum per block")
	return nil
}

// SwapComparisonRow contrasts an n-party circular swap settled by the
// timelock deal protocol vs the HTLC baseline.
type SwapComparisonRow struct {
	N              int
	DealSigVerifs  uint64
	DealGas        uint64
	HTLCSigVerifs  uint64
	HTLCGas        uint64
	DealCommitted  bool
	HTLCCommitted  bool
	HTLCSupported  bool
	BrokerRejected bool // HTLC cannot express the broker deal
}

// TransferDepthRow captures Figure 7's transfer-phase dichotomy: t·Δ when
// transfers are sequential (pass-through chains) vs Δ when they can run
// concurrently (direct transfers).
type TransferDepthRow struct {
	N             int
	ChainDepth    int     // longest dependent-transfer chain in the spec
	RingTransfer  float64 // Δ units, all transfers independent
	PathTransfer  float64 // Δ units, transfers form a pass-through chain
	RingCommitted bool
	PathCommitted bool
}

// SweepTransferDepth measures transfer-phase duration on rings (depth 1)
// vs dense path deals (depth n−1) as n grows.
func SweepTransferDepth(ns []int, seed uint64) ([]TransferDepthRow, error) {
	out := make([]TransferDepthRow, len(ns))
	err := pool().Map(len(ns), func(i int) error {
		n := ns[i]
		ring := deal.RingSpec(n, 40000, 1000)
		ringRow, err := RunTime(ring, engine.Options{Seed: seed, Protocol: party.ProtoTimelock}, "ring")
		if err != nil {
			return err
		}
		path := deal.DenseSpec(n, 2, 40000, 1000)
		pathRow, err := RunTime(path, engine.Options{Seed: seed, Protocol: party.ProtoTimelock}, "path")
		if err != nil {
			return err
		}
		out[i] = TransferDepthRow{
			N:             n,
			ChainDepth:    path.MaxTransferChain(),
			RingTransfer:  ringRow.Transfer,
			PathTransfer:  pathRow.Transfer,
			RingCommitted: ringRow.Committed,
			PathCommitted: pathRow.Committed,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FprintTransferDepth renders the transfer-depth sweep.
func FprintTransferDepth(w io.Writer, rows []TransferDepthRow) {
	fmt.Fprintln(w, "transfer phase duration: concurrent (ring) vs sequential (pass-through path)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tchain depth\tring transfer (Δ)\tpath transfer (Δ)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\n", r.N, r.ChainDepth, r.RingTransfer, r.PathTransfer)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: transfer takes tΔ sequentially, Δ when concurrent (Figure 7)")
}

// AbortTimeRow measures Figure 7's Abort column: how long until all
// compliant deposits are back after a deal fails.
type AbortTimeRow struct {
	Protocol string
	N        int
	// AbortEnd is when the last escrow finalized (refunds complete), in
	// Δ units from the start.
	AbortEnd float64
	Aborted  bool
}

// RunAbortTime runs a ring deal in which one party never votes, forcing
// the failure path: timelock escrows refund after t0+N·Δ (so the abort
// path costs O(n)Δ); CBC parties give up after their per-party patience
// and the abort settles one proof round later.
func RunAbortTime(n int, proto party.Protocol, patience sim.Duration, seed uint64) (AbortTimeRow, error) {
	spec := deal.RingSpec(n, 2000, 1000)
	opts := engine.Options{
		Seed:     seed,
		Protocol: proto,
		F:        1,
		Patience: patience,
		Behaviors: map[chain.Addr]party.Behavior{
			spec.Parties[0]: {SkipVoting: true},
		},
	}
	w, err := engine.Build(spec, opts)
	if err != nil {
		return AbortTimeRow{}, err
	}
	r := w.Run()
	return AbortTimeRow{
		Protocol: proto.String(),
		N:        n,
		AbortEnd: r.Phases.InDelta(r.Phases.DecisionEnd, spec.Delta),
		Aborted:  r.AllAborted,
	}, nil
}

// FprintAbortTimes renders the abort-path sweep.
func FprintAbortTimes(w io.Writer, rows []AbortTimeRow) {
	fmt.Fprintln(w, "abort path duration (one party never votes)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\tn\tabort complete (Δ)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\n", r.Protocol, r.N, r.AbortEnd)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: timelock abort O(n)Δ (refund at t0+NΔ); CBC abort after a per-party timeout")
}
