package harness

import (
	"fmt"
	"io"

	"xdeal/internal/party"
)

// WriteReport regenerates the full experiment report by running every
// experiment at the given seed: Figure 4 with its sweeps, Figure 7 with
// the commit- and transfer-scaling series, the PoW attack analysis, the
// proof-format ablation, and the HTLC baseline comparison. cmd/benchtab
// uses it for the `report` subcommand; README's "Reproducing the
// paper's evaluation" lists the per-table commands.
func WriteReport(w io.Writer, seed uint64, trials int) error {
	fmt.Fprintln(w, "# xdeal experiment report")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Deterministic run at seed %d. Regenerate: `go run ./cmd/benchtab report`.\n", seed)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Figure 4 — gas costs")
	fmt.Fprintln(w)
	if err := Fig4(w, 6, 4, 2, seed); err != nil {
		return err
	}
	fmt.Fprintln(w)

	ns := []int{3, 4, 6, 8, 10}
	tl, cb, err := SweepCommitGasByN(ns, 2, seed)
	if err != nil {
		return err
	}
	FprintSweep(w, "### Commit gas vs n — timelock (rings, m=n)", "n", ns, tl)
	fmt.Fprintln(w)
	FprintSweep(w, "### Commit gas vs n — CBC (f=2)", "n", ns, cb)
	fmt.Fprintln(w)

	fs := []int{1, 2, 4, 7, 10}
	fsRows, err := SweepCommitGasByF(6, fs, seed)
	if err != nil {
		return err
	}
	FprintSweep(w, "### Commit gas vs f — CBC (n=6)", "f", fs, fsRows)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Figure 7 — delays")
	fmt.Fprintln(w)
	if err := Fig7(w, 6, seed); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### Commit duration vs n (Δ units)")
	for _, n := range []int{3, 5, 7, 9} {
		rows, err := Fig7Rows(n, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  n=%d: forwarded=%.2f altruistic=%.2f cbc=%.2f\n",
			n, rows[0].Commit, rows[1].Commit, rows[2].Commit)
	}
	fmt.Fprintln(w)

	depth, err := SweepTransferDepth([]int{3, 5, 7}, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "### Transfer dichotomy (tΔ sequential vs Δ concurrent)")
	FprintTransferDepth(w, depth)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "### Abort path (Figure 7's Abort column)")
	var aborts []AbortTimeRow
	for _, n := range []int{3, 5, 7} {
		tl, err := RunAbortTime(n, party.ProtoTimelock, 0, seed)
		if err != nil {
			return err
		}
		cb, err := RunAbortTime(n, party.ProtoCBC, 4000, seed)
		if err != nil {
			return err
		}
		aborts = append(aborts, tl, cb)
	}
	FprintAbortTimes(w, aborts)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## §6.2 — PoW private-mining attack")
	fmt.Fprintln(w)
	PoWAttack(w, []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.45},
		[]int{0, 1, 2, 4, 8, 16}, trials, seed)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## §6.2 — proof-format ablation")
	fmt.Fprintln(w)
	if err := Ablation(w, []int{1, 2, 4, 7}, seed); err != nil {
		return err
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## §8 — HTLC baseline")
	fmt.Fprintln(w)
	return SwapVsDeal(w, []int{2, 3, 4, 6, 8}, seed)
}
