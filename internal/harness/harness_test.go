package harness

import (
	"bytes"
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/engine"
	"xdeal/internal/party"
	"xdeal/internal/sim"
)

func TestFig4ShapesMatchPaper(t *testing.T) {
	// Figure 4 row shapes on a dense deal: escrow and transfer writes
	// scale with m and t; timelock commit verifications scale like m·n²
	// while CBC's scale like m·(2f+1).
	n, m, f := 5, 4, 2
	spec := deal.DenseSpec(n, m, 6000, 1000)
	tl, err := RunGas(spec, engine.Options{Seed: 42, Protocol: party.ProtoTimelock})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := RunGas(spec, engine.Options{Seed: 42, Protocol: party.ProtoCBC, F: f})
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Committed || !cb.Committed {
		t.Fatalf("workload did not commit: timelock=%v cbc=%v", tl.Committed, cb.Committed)
	}

	// Escrow: 4 writes per escrowing party + 1 registration write per
	// (deal, contract) pair. DenseSpec has one escrowing party per
	// contract (the path head), so 5m writes total.
	wantEscrow := uint64(5 * m)
	if tl.EscrowWrites != wantEscrow || cb.EscrowWrites != wantEscrow {
		t.Fatalf("escrow writes = %d/%d, want %d (O(m))", tl.EscrowWrites, cb.EscrowWrites, wantEscrow)
	}

	// Transfer: 2 writes per tentative transfer, t = m(n-1) transfers.
	wantTransfer := uint64(2 * m * (n - 1))
	if tl.TransferWrites != wantTransfer || cb.TransferWrites != wantTransfer {
		t.Fatalf("transfer writes = %d/%d, want %d (O(t))", tl.TransferWrites, cb.TransferWrites, wantTransfer)
	}

	// Validation is free at the contracts.
	if tl.ValidationGas != 0 || cb.ValidationGas != 0 {
		t.Fatal("validation consumed gas; §7.1 says it is party-side only")
	}

	// Commit: timelock verifications are Θ(m·n²)-ish (each contract
	// collects n votes with multi-hop paths); they must strictly exceed
	// the linear bound m·n and stay within the worst case m·n².
	if tl.CommitSigVerifs <= uint64(m*n) {
		t.Fatalf("timelock commit verifications = %d, want > m·n = %d", tl.CommitSigVerifs, m*n)
	}
	if tl.CommitSigVerifs > uint64(m*n*n) {
		t.Fatalf("timelock commit verifications = %d exceed worst case m·n² = %d", tl.CommitSigVerifs, m*n*n)
	}
	// CBC: exactly one quorum check per contract.
	if cb.CommitSigVerifs != uint64(m*(2*f+1)) {
		t.Fatalf("cbc commit verifications = %d, want m(2f+1) = %d", cb.CommitSigVerifs, m*(2*f+1))
	}
}

func TestFig4TableRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(&buf, 4, 3, 1, 7); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 4", "Timelock", "CBC", "sig.ver."} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestCommitGasCrossover(t *testing.T) {
	// §9: commit cost comparison. Timelock commit verifications grow
	// superlinearly with n; CBC's per-contract cost is constant. At
	// small n with a large committee the CBC is more expensive; as n
	// grows the timelock overtakes it.
	ns := []int{3, 6, 10}
	tl, cb, err := SweepCommitGasByN(ns, 4, 11) // 2f+1 = 9 validators
	if err != nil {
		t.Fatal(err)
	}
	for i := range ns {
		if !tl[i].Committed || !cb[i].Committed {
			t.Fatalf("n=%d did not commit", ns[i])
		}
	}
	// CBC per-contract constant: sig verifs = m(2f+1) exactly.
	for i, r := range cb {
		if r.CommitSigVerifs != uint64(r.M*9) {
			t.Fatalf("n=%d: cbc verifs = %d, want %d", ns[i], r.CommitSigVerifs, r.M*9)
		}
	}
	// Timelock grows faster than linear: per-contract verifications at
	// n=10 must exceed those at n=3 by more than the ratio of n.
	perContract := func(r GasRow) float64 { return float64(r.CommitSigVerifs) / float64(r.M) }
	lo, hi := perContract(tl[0]), perContract(tl[len(tl)-1])
	if hi/lo <= float64(ns[len(ns)-1])/float64(ns[0]) {
		t.Fatalf("timelock per-contract verifications grew %.2f→%.2f: not superlinear", lo, hi)
	}
	// Crossover: at n=3 the big-committee CBC is costlier per contract;
	// at n=10 the timelock is.
	if perContract(cb[0]) <= perContract(tl[0]) {
		t.Fatalf("at n=3: cbc %.1f ≤ timelock %.1f, expected CBC costlier", perContract(cb[0]), perContract(tl[0]))
	}
	if perContract(tl[len(tl)-1]) <= perContract(cb[len(cb)-1]) {
		t.Fatalf("at n=10: timelock %.1f ≤ cbc %.1f, expected timelock costlier",
			perContract(tl[len(tl)-1]), perContract(cb[len(cb)-1]))
	}
}

func TestSweepCommitGasByF(t *testing.T) {
	fs := []int{1, 2, 4, 7}
	rows, err := SweepCommitGasByF(4, fs, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		want := uint64(r.M * (2*fs[i] + 1))
		if r.CommitSigVerifs != want {
			t.Fatalf("f=%d: verifs = %d, want %d", fs[i], r.CommitSigVerifs, want)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7Rows(6, 17)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]TimeRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
		if !r.Committed {
			t.Fatalf("%s run did not commit", r.Mode)
		}
		// Escrow completes within ~Δ (one submit+block+notify under
		// near-Δ/2 hop latency).
		if r.Escrow > 2.0 {
			t.Fatalf("%s: escrow took %.2fΔ, want ≤ ~Δ", r.Mode, r.Escrow)
		}
	}
	fw, al, cb := byMode["forwarded"], byMode["altruistic"], byMode["cbc"]
	// Forwarded timelock commit is O(n)Δ: votes hop around the ring.
	// Altruistic voting collapses it to ~Δ. CBC decides in O(1)Δ.
	if fw.Commit <= al.Commit {
		t.Fatalf("forwarded commit %.2fΔ not slower than altruistic %.2fΔ", fw.Commit, al.Commit)
	}
	if fw.Commit < 2 {
		t.Fatalf("forwarded commit %.2fΔ too fast for a 6-ring; forwarding not exercised", fw.Commit)
	}
	if al.Commit > 2.5 {
		t.Fatalf("altruistic commit %.2fΔ, want ~Δ", al.Commit)
	}
	if cb.Commit > 3.5 {
		t.Fatalf("cbc commit %.2fΔ, want O(1)Δ", cb.Commit)
	}
}

func TestFig7CommitGrowsWithN(t *testing.T) {
	// The O(n)Δ shape: forwarded-voting commit duration increases with
	// ring size.
	var commits []float64
	for _, n := range []int{3, 6, 9} {
		spec := deal.RingSpec(n, 40000, 1000)
		row, err := RunTime(spec, engine.Options{Seed: 19, Protocol: party.ProtoTimelock}, "forwarded")
		if err != nil {
			t.Fatal(err)
		}
		if !row.Committed {
			t.Fatalf("n=%d did not commit", n)
		}
		commits = append(commits, row.Commit)
	}
	if !(commits[0] < commits[1] && commits[1] < commits[2]) {
		t.Fatalf("commit durations %v not increasing with n", commits)
	}
}

func TestFig7TableRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(&buf, 4, 23); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 7", "forwarded", "altruistic", "cbc"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestPoWAttackTableRenders(t *testing.T) {
	var buf bytes.Buffer
	PoWAttack(&buf, []float64{0.1, 0.3}, []int{0, 4}, 300, 3)
	out := buf.String()
	if !strings.Contains(out, "0.10") || !strings.Contains(out, "confirmations required") {
		t.Fatalf("pow table malformed:\n%s", out)
	}
}

func TestProofAblationShape(t *testing.T) {
	row, err := ProofAblation(2, 0, 29)
	if err != nil {
		t.Fatal(err)
	}
	if !row.CertCommitted || !row.BlockIsCommitted {
		t.Fatal("ablation runs did not commit")
	}
	// Status certificates: one quorum per contract (m=2 here). Block
	// proofs: at least a quorum per block per contract — strictly more
	// whenever the span has more than one block.
	if row.BlockSigVerifs <= row.CertSigVerifs {
		t.Fatalf("block proof verifs %d ≤ cert verifs %d; ablation shows no gap",
			row.BlockSigVerifs, row.CertSigVerifs)
	}
}

func TestProofAblationWithReconfigs(t *testing.T) {
	base, err := ProofAblation(1, 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ProofAblation(1, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.CertCommitted {
		t.Fatal("reconfigured run did not commit")
	}
	// k reconfigurations add k quorum checks per contract.
	if rec.CertSigVerifs <= base.CertSigVerifs {
		t.Fatalf("reconfig verifs %d ≤ base %d; (k+1)(2f+1) scaling missing",
			rec.CertSigVerifs, base.CertSigVerifs)
	}
}

func TestAblationTableRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := Ablation(&buf, []int{1, 2}, 37); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "proof ablation") {
		t.Fatalf("ablation table malformed:\n%s", buf.String())
	}
}

func TestSwapComparison(t *testing.T) {
	row, err := RunSwapComparison(4, 41)
	if err != nil {
		t.Fatal(err)
	}
	if !row.DealCommitted || !row.HTLCCommitted {
		t.Fatalf("settlements incomplete: deal=%v htlc=%v", row.DealCommitted, row.HTLCCommitted)
	}
	if !row.HTLCSupported || !row.BrokerRejected {
		t.Fatal("expressiveness checks failed")
	}
	if row.HTLCSigVerifs != 0 {
		t.Fatalf("htlc used %d signature verifications, want 0", row.HTLCSigVerifs)
	}
	if row.DealSigVerifs == 0 {
		t.Fatal("deal protocol used no signature verifications")
	}
}

func TestSwapVsDealTableRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := SwapVsDeal(&buf, []int{2, 3}, 43); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HTLC") {
		t.Fatalf("swap table malformed:\n%s", buf.String())
	}
}

func TestRunTimeHandlesAborts(t *testing.T) {
	// A deal that cannot complete still yields a row (phases zeroed past
	// the failure point) rather than wedging the harness.
	spec := deal.RingSpec(3, 40000, 1000)
	row, err := RunTime(spec, engine.Options{
		Seed: 47, Protocol: party.ProtoTimelock,
		Behaviors: map[chain.Addr]party.Behavior{"p00": {party.SkipEscrow{}}},
	}, "forwarded")
	if err != nil {
		t.Fatal(err)
	}
	if row.Committed {
		t.Fatal("impossible deal committed")
	}
	_ = sim.Time(0)
}

func TestTransferDepthDichotomy(t *testing.T) {
	// Figure 7: "transfer tΔ or Δ". Rings transfer concurrently (flat in
	// n); pass-through paths serialize (growing with n).
	rows, err := SweepTransferDepth([]int{3, 5, 7}, 53)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.RingCommitted || !r.PathCommitted {
			t.Fatalf("n=%d runs did not commit", r.N)
		}
		if r.ChainDepth != r.N-1 {
			t.Fatalf("n=%d path depth = %d, want n-1", r.N, r.ChainDepth)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.PathTransfer <= first.PathTransfer {
		t.Fatalf("sequential transfer did not grow: %.2f -> %.2f", first.PathTransfer, last.PathTransfer)
	}
	if last.RingTransfer > first.RingTransfer+1.0 {
		t.Fatalf("concurrent transfer grew with n: %.2f -> %.2f", first.RingTransfer, last.RingTransfer)
	}
	if last.PathTransfer <= last.RingTransfer {
		t.Fatalf("at n=%d sequential (%.2f) not slower than concurrent (%.2f)",
			last.N, last.PathTransfer, last.RingTransfer)
	}
	var buf bytes.Buffer
	FprintTransferDepth(&buf, rows)
	if !strings.Contains(buf.String(), "chain depth") {
		t.Fatal("render malformed")
	}
}

func TestWriteReportComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, 3, 300); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# xdeal experiment report",
		"Figure 4", "Figure 7",
		"PoW private-mining attack",
		"proof-format ablation",
		"HTLC baseline",
		"Transfer dichotomy",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestAbortPathTiming(t *testing.T) {
	// Figure 7's Abort column. Timelock: refunds land after t0+N·Δ, so
	// the abort path grows linearly with n (t0=2Δ here, so expect
	// ≈ (2+n)Δ). CBC: the giving-up party's patience dominates,
	// independent of n.
	var tl []AbortTimeRow
	for _, n := range []int{3, 5, 7} {
		row, err := RunAbortTime(n, party.ProtoTimelock, 0, 91)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Aborted {
			t.Fatalf("timelock n=%d did not abort", n)
		}
		tl = append(tl, row)
	}
	for i, row := range tl {
		n := []int{3, 5, 7}[i]
		want := float64(2 + n) // t0 (2Δ) + N·Δ
		if row.AbortEnd < want || row.AbortEnd > want+1.5 {
			t.Fatalf("timelock n=%d abort at %.2fΔ, want ≈ %.1fΔ", n, row.AbortEnd, want)
		}
	}
	if !(tl[0].AbortEnd < tl[1].AbortEnd && tl[1].AbortEnd < tl[2].AbortEnd) {
		t.Fatal("timelock abort time not growing with n")
	}

	var cb []AbortTimeRow
	for _, n := range []int{3, 5, 7} {
		row, err := RunAbortTime(n, party.ProtoCBC, 4000, 91)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Aborted {
			t.Fatalf("cbc n=%d did not abort", n)
		}
		cb = append(cb, row)
	}
	// All CBC aborts settle shortly after the 4Δ patience, flat in n.
	for _, row := range cb {
		if row.AbortEnd < 4 || row.AbortEnd > 6.5 {
			t.Fatalf("cbc n=%d abort at %.2fΔ, want just after the 4Δ patience", row.N, row.AbortEnd)
		}
	}
	spread := cb[2].AbortEnd - cb[0].AbortEnd
	if spread > 1.0 || spread < -1.0 {
		t.Fatalf("cbc abort time varies with n by %.2fΔ; should be per-party timeout", spread)
	}

	var buf bytes.Buffer
	FprintAbortTimes(&buf, append(tl, cb...))
	if !strings.Contains(buf.String(), "abort path") {
		t.Fatal("render malformed")
	}
}
