package cbc

import (
	"reflect"
	"testing"

	"xdeal/internal/bft"
	"xdeal/internal/chain"
	"xdeal/internal/gas"
	"xdeal/internal/sig"
	"xdeal/internal/sim"
)

// TestStatusProofShownToThreeEscrowsVerifiedOnce: one deal with an
// escrow on each of three chains sharing a verify memo, which the
// validators sign through too. Every escrow is shown the same 2f+1
// certificate; the memo meets 2f+1 new signatures in all, and each chain
// still charges its own 2f+1.
func TestStatusProofShownToThreeEscrowsVerifiedOnce(t *testing.T) {
	const f = 2
	sched := sim.NewScheduler()
	rng := sim.NewRNG(11)
	memo := sig.NewMemo()
	service := New(Config{Tag: "cbc", F: f, BlockInterval: 10, Schedule: gas.DefaultSchedule(), Memo: memo}, sched, rng)
	var worlds []*world
	for _, id := range []chain.ID{"c0", "c1", "c2"} {
		worlds = append(worlds, newWorldOn(sched, rng, service, id, memo))
	}
	h := worlds[0].startDeal(t, "D")
	for _, w := range worlds {
		w.escrowCoins(t, "alice", "D", h, 100)
	}
	worlds[0].voteAll("D", h)

	for _, w := range worlds {
		proof, err := w.cbc.StatusProofFor("D")
		if err != nil {
			t.Fatal(err)
		}
		before := w.c.Meter().Snapshot()
		if r := w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &proof}); r.Err != nil {
			t.Fatalf("commit on %s: %v", w.c.ID(), r.Err)
		}
		delta := w.c.Meter().Snapshot().Sub(before)
		if got := delta.Counts[gas.OpSigVerify]; got != 2*f+1 {
			t.Fatalf("chain %s charged %d verifications, want 2f+1 = %d", w.c.ID(), got, 2*f+1)
		}
	}
	asked, hits := memo.Stats()
	if asked != 3*(2*f+1) || asked-hits != 2*f+1 {
		t.Fatalf("asked %d, real %d; want 3(2f+1) = %d asked and 2f+1 = %d real",
			asked, asked-hits, 3*(2*f+1), 2*f+1)
	}
	if service.certsSigned != 1 {
		t.Fatalf("validators signed %d certificates for three claims of one decision, want 1", service.certsSigned)
	}
}

// TestBlockProofFailureChargesChecksPerformed: a proof whose block i
// carries a bad second signature is charged the full quorum of every
// block before i plus the two checks made on block i — nothing for the
// blocks never reached.
func TestBlockProofFailureChargesChecksPerformed(t *testing.T) {
	const f = 1
	w := newWorld(t, f)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	for _, p := range parties {
		w.cbc.Publish(Entry{Kind: EntryCommit, Deal: "D", Party: p, Hash: h})
		w.sched.Run()
	}
	genuine, err := w.cbc.BlockProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	if len(genuine.Blocks) < 3 {
		t.Fatalf("expected multi-block span, got %d", len(genuine.Blocks))
	}
	_, signers := bft.NewCommittee("cbc", 0, f)

	for i := range genuine.Blocks {
		forged := genuine
		forged.Blocks = append([]*Block(nil), genuine.Blocks...)
		bad := *genuine.Blocks[i]
		bad.cert.Sigs = append([]bft.Signature(nil), bad.cert.Sigs...)
		bad.cert.Sigs[1].Sig = bft.MakeCertificate([]byte("some other block"), 0, signers[1:2]).Sigs[0].Sig
		forged.Blocks[i] = &bad

		before := w.c.Meter().Snapshot()
		r := w.call("mallory", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Blocks: &forged})
		if !errorContains(r.Err, bft.ErrBadSignature) {
			t.Fatalf("bad block %d: err = %v, want ErrBadSignature", i, r.Err)
		}
		delta := w.c.Meter().Snapshot().Sub(before)
		want := uint64(i*(2*f+1) + 2)
		if got := delta.Counts[gas.OpSigVerify]; got != want {
			t.Fatalf("bad block %d: charged %d verifications, want %d", i, got, want)
		}
	}
}

func TestStatusCertificateSignedOncePerEpoch(t *testing.T) {
	w := newWorld(t, 1)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.voteAll("D", h)

	first, err := w.cbc.StatusProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	second, _ := w.cbc.StatusProofFor("D")
	if !reflect.DeepEqual(first.Cert, second.Cert) {
		t.Fatal("two claimants of one decision were handed different certificates")
	}
	if w.cbc.certsSigned != 1 {
		t.Fatalf("signed %d certificates for two requests, want 1", w.cbc.certsSigned)
	}

	// A new committee must vouch afresh: the old epoch's certificate is
	// not what a proof carrying the handover chain ends in.
	w.cbc.Reconfigure()
	signedBefore := w.cbc.certsSigned
	third, err := w.cbc.StatusProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	if third.Cert.Epoch != 1 || len(third.Reconfigs) != 1 {
		t.Fatalf("after reconfiguration: cert epoch %d with %d handovers, want 1 and 1", third.Cert.Epoch, len(third.Reconfigs))
	}
	if err := third.Cert.Verify(w.cbc.committee, nil); err != nil {
		t.Fatalf("re-signed certificate does not verify under the new committee: %v", err)
	}
	fourth, _ := w.cbc.StatusProofFor("D")
	if !reflect.DeepEqual(third.Cert, fourth.Cert) || w.cbc.certsSigned != signedBefore+1 {
		t.Fatalf("new epoch signed %d certificates for two requests, want 1", w.cbc.certsSigned-signedBefore)
	}
	r := w.call("bob", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Status: &fourth})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestBlockCertifiedOnDemandByProducingEpoch: blocks produced under
// epoch 0 and first carried by a proof after a reconfiguration are
// certified by the epoch-0 quorum, byte for byte what signing at
// production would have stored, and the proof verifies.
func TestBlockCertifiedOnDemandByProducingEpoch(t *testing.T) {
	const f = 1
	w := newWorld(t, f)
	h := w.startDeal(t, "D")
	w.escrowCoins(t, "alice", "D", h, 100)
	w.voteAll("D", h)
	for _, b := range w.cbc.blocks {
		if len(b.cert.Sigs) != 0 {
			t.Fatalf("block %d was signed at production", b.Height)
		}
	}
	if w.cbc.certsSigned != 0 {
		t.Fatalf("signed %d certificates before any proof was asked for", w.cbc.certsSigned)
	}
	w.cbc.Reconfigure()

	proof, err := w.cbc.BlockProofFor("D")
	if err != nil {
		t.Fatal(err)
	}
	_, epoch0 := bft.NewCommittee("cbc", 0, f)
	for _, b := range proof.Blocks {
		eager := bft.MakeCertificate(b.Hash[:], 0, epoch0[:2*f+1])
		if !reflect.DeepEqual(b.cert, eager) {
			t.Fatalf("block %d: on-demand certificate differs from an eager epoch-0 one", b.Height)
		}
	}
	signed := w.cbc.certsSigned
	if again, _ := w.cbc.BlockProofFor("D"); !reflect.DeepEqual(again, proof) || w.cbc.certsSigned != signed {
		t.Fatal("a second proof over the same span signed its blocks again")
	}
	r := w.call("carol", "coin-escrow", MethodCommitProof, ProofArgs{Deal: "D", Blocks: &proof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}
