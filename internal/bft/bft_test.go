package bft

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"xdeal/internal/sig"
)

func TestCommitteeShape(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 2)
	if c.Size() != 7 {
		t.Fatalf("size = %d, want 3f+1 = 7", c.Size())
	}
	if c.Quorum() != 5 {
		t.Fatalf("quorum = %d, want 2f+1 = 5", c.Quorum())
	}
	if len(signers) != 7 {
		t.Fatalf("signers = %d, want 7", len(signers))
	}
	for _, s := range signers {
		pub, ok := c.Key(s.ID)
		if !ok || string(pub) != string(s.Public) {
			t.Fatalf("signer %s not in committee", s.ID)
		}
	}
}

func TestCommitteeDeterministic(t *testing.T) {
	a, _ := NewCommittee("cbc", 0, 1)
	b, _ := NewCommittee("cbc", 0, 1)
	if string(a.Encode()) != string(b.Encode()) {
		t.Fatal("same-tag committees differ")
	}
	c, _ := NewCommittee("other", 0, 1)
	if string(a.Encode()) == string(c.Encode()) {
		t.Fatal("different-tag committees identical")
	}
}

func TestCommitteeEqualAgreesWithEncoding(t *testing.T) {
	base, _ := NewCommittee("cbc", 0, 1)
	same, _ := NewCommittee("cbc", 0, 1)
	otherTag, _ := NewCommittee("evil", 0, 1)
	bigger, _ := NewCommittee("cbc", 0, 2)

	nextEpoch, fewerFaults, renamed, rekeyed := base, base, base, base
	nextEpoch.Epoch++
	fewerFaults.F--
	renamed.Members = append([]Member(nil), base.Members...)
	renamed.Members[2].ID = "impostor"
	rekeyed.Members = append([]Member(nil), base.Members...)
	rekeyed.Members[2].Public = otherTag.Members[2].Public

	for name, tc := range map[string]struct {
		other Committee
		want  bool
	}{
		"itself":        {base, true},
		"rebuilt":       {same, true},
		"other tag":     {otherTag, false},
		"more members":  {bigger, false},
		"next epoch":    {nextEpoch, false},
		"different f":   {fewerFaults, false},
		"renamed":       {renamed, false},
		"rekeyed":       {rekeyed, false},
		"zero value":    {Committee{}, false},
		"prefix subset": {Committee{Epoch: base.Epoch, F: base.F, Members: base.Members[:3]}, false},
	} {
		if got := base.Equal(tc.other); got != tc.want {
			t.Errorf("%s: Equal = %t, want %t", name, got, tc.want)
		}
		if got := bytes.Equal(base.Encode(), tc.other.Encode()); got != tc.want {
			t.Errorf("%s: encodings equal = %t, want %t — Equal must mirror Encode", name, got, tc.want)
		}
	}
}

// schemes runs a signature check under both schemes: ed25519 (a nil
// memo) and a world's facts (a fresh memo).
func schemes(t *testing.T, check func(t *testing.T, memo *sig.Memo)) {
	t.Run("ed25519", func(t *testing.T) { check(t, nil) })
	t.Run("facts", func(t *testing.T) { check(t, sig.NewMemo()) })
}

// TestCertificateMemoisedAcrossVerifiers: the same certificate checked by
// several contracts misses the memo 2f+1 times in total, while each
// contract still counts (and pays for) its own 2f+1.
func TestCertificateMemoisedAcrossVerifiers(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 2)
	memo := sig.NewMemo()
	cert := MakeCertificateWith(memo, []byte("deal D committed"), 0, signers[:c.Quorum()])
	var counted int
	for i := 0; i < 3; i++ {
		if err := cert.VerifyWith(memo, c, &counted); err != nil {
			t.Fatal(err)
		}
	}
	if counted != 3*c.Quorum() {
		t.Fatalf("verifications counted = %d, want 3(2f+1) = %d", counted, 3*c.Quorum())
	}
	asked, hits := memo.Stats()
	if misses := asked - hits; misses != uint64(c.Quorum()) {
		t.Fatalf("memo misses = %d, want 2f+1 = %d", misses, c.Quorum())
	}
}

func TestCertificateQuorumAccepted(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1) // 4 validators, quorum 3
	stmt := []byte("deal D committed")
	cert := MakeCertificate(stmt, 0, signers[:3])
	var n int
	if err := cert.Verify(c, &n); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("verifications = %d, want 2f+1 = 3", n)
	}
}

func TestCertificateUnderQuorumRejected(t *testing.T) {
	// f Byzantine validators alone cannot certify anything — this is the
	// core of why BFT proofs are final (§6.2).
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("fake abort"), 0, signers[:2])
	if err := cert.Verify(c, nil); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrNoQuorum", err)
	}
}

func TestCertificateDuplicateSignerRejected(t *testing.T) {
	schemes(t, func(t *testing.T, memo *sig.Memo) {
		c, signers := NewCommittee("cbc", 0, 1)
		cert := MakeCertificateWith(memo, []byte("x"), 0, []Signer{signers[0], signers[0], signers[1]})
		if err := cert.VerifyWith(memo, c, nil); !errors.Is(err, ErrDuplicateValidator) {
			t.Fatalf("err = %v, want ErrDuplicateValidator", err)
		}
	})
}

func TestCertificateOutsiderRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	outsider := NewSigner("intruder")
	cert := MakeCertificate([]byte("x"), 0, []Signer{signers[0], signers[1], outsider})
	if err := cert.Verify(c, nil); !errors.Is(err, ErrUnknownValidator) {
		t.Fatalf("err = %v, want ErrUnknownValidator", err)
	}
}

func TestCertificateWrongEpochRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("x"), 1, signers[:3])
	if err := cert.Verify(c, nil); !errors.Is(err, ErrWrongEpoch) {
		t.Fatalf("err = %v, want ErrWrongEpoch", err)
	}
}

func TestCertificateTamperedStatementRejected(t *testing.T) {
	c, signers := NewCommittee("cbc", 0, 1)
	cert := MakeCertificate([]byte("commit"), 0, signers[:3])
	cert.Statement = []byte("abort!")
	if err := cert.Verify(c, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestCertificateForeignSignatureRejected(t *testing.T) {
	schemes(t, func(t *testing.T, memo *sig.Memo) {
		c, signers := NewCommittee("cbc", 0, 1)
		cert := MakeCertificateWith(memo, []byte("x"), 0, signers[:3])
		// Swap in a signature from a different validator (valid key,
		// wrong claimed identity).
		cert.Sigs[0].Sig = memo.Sign(signers[3].key, []byte("x"))
		if err := cert.VerifyWith(memo, c, nil); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v, want ErrBadSignature", err)
		}
	})
}

// plainVerify is the un-memoised certificate check VerifyChain is given
// outside a chain.Env, counting into n when non-nil.
func plainVerify(n *int) func(Certificate, Committee) error {
	return func(cert Certificate, c Committee) error { return cert.Verify(c, n) }
}

func TestReconfigChain(t *testing.T) {
	c0, s0 := NewCommittee("cbc", 0, 1)
	c1, s1 := NewCommittee("cbc", 1, 1)
	c2, _ := NewCommittee("cbc", 2, 1)

	chain := []Reconfig{
		NewReconfigWith(nil, c1, 0, s0[:3]),
		NewReconfigWith(nil, c2, 1, s1[:3]),
	}
	var n int
	final, err := VerifyChain(c0, chain, plainVerify(&n))
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != 2 {
		t.Fatalf("final epoch = %d, want 2", final.Epoch)
	}
	// k=2 reconfigs at quorum 3 each: 6 verifications so far; a final
	// status certificate adds 3 more, giving (k+1)(2f+1) = 9 total.
	if n != 6 {
		t.Fatalf("verifications = %d, want 6", n)
	}
}

// TestReconfigChainMemoisedMatchesPlain: handovers signed through a
// memo — and signed again through another, which makes the same facts —
// verify through any memo exactly as plainly signed handovers verify
// plainly, with the same count of checks, and not in the other scheme.
func TestReconfigChainMemoisedMatchesPlain(t *testing.T) {
	c0, s0 := NewCommittee("cbc/memo-twin", 0, 1)
	c1, s1 := NewCommittee("cbc/memo-twin", 1, 1)
	c2, _ := NewCommittee("cbc/memo-twin", 2, 1)
	handovers := func(memo *sig.Memo) []Reconfig {
		return []Reconfig{NewReconfigWith(memo, c1, 0, s0[:3]), NewReconfigWith(memo, c2, 1, s1[:3])}
	}
	var plainN int
	plain := handovers(nil)
	if final, err := VerifyChain(c0, plain, plainVerify(&plainN)); err != nil || final.Epoch != 2 {
		t.Fatalf("plain: VerifyChain = (epoch %d, %v), want epoch 2", final.Epoch, err)
	}
	first := handovers(sig.NewMemo())
	if !reflect.DeepEqual(handovers(sig.NewMemo()), first) {
		t.Fatal("two memos signed different handovers")
	}
	var n int
	memoVerify := func(cert Certificate, c Committee) error { return cert.VerifyWith(sig.NewMemo(), c, &n) }
	if final, err := VerifyChain(c0, first, memoVerify); err != nil || final.Epoch != 2 || n != plainN {
		t.Fatalf("memoised: VerifyChain = (epoch %d, %v) after %d checks, want epoch 2 after %d", final.Epoch, err, n, plainN)
	}
	if _, err := VerifyChain(c0, first, plainVerify(nil)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("memo-signed handovers checked plainly: err = %v, want ErrBadSignature", err)
	}
	if _, err := VerifyChain(c0, plain, memoVerify); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("plain handovers through a memo: err = %v, want ErrBadSignature", err)
	}
}

func TestReconfigChainEmptyIsInitial(t *testing.T) {
	c0, _ := NewCommittee("cbc", 0, 1)
	final, err := VerifyChain(c0, nil, plainVerify(nil))
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != 0 {
		t.Fatal("empty chain should return the initial committee")
	}
}

func TestReconfigChainGapRejected(t *testing.T) {
	c0, s0 := NewCommittee("cbc", 0, 1)
	c2, _ := NewCommittee("cbc", 2, 1) // skips epoch 1
	chain := []Reconfig{NewReconfigWith(nil, c2, 0, s0[:3])}
	if _, err := VerifyChain(c0, chain, plainVerify(nil)); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("err = %v, want ErrBrokenChain", err)
	}
}

func TestReconfigUnderQuorumRejected(t *testing.T) {
	// Old validators cannot hand over authority without a quorum — a
	// pair of corrupt validators cannot install a fake committee.
	c0, s0 := NewCommittee("cbc", 0, 1)
	evil, _ := NewCommittee("evil", 1, 1)
	chain := []Reconfig{NewReconfigWith(nil, evil, 0, s0[:2])}
	if _, err := VerifyChain(c0, chain, plainVerify(nil)); err == nil {
		t.Fatal("under-quorum reconfiguration accepted")
	}
}

func TestReconfigSubstitutedCommitteeRejected(t *testing.T) {
	// A valid handover certificate for committee X cannot be reused to
	// install committee Y.
	c0, s0 := NewCommittee("cbc", 0, 1)
	c1, _ := NewCommittee("cbc", 1, 1)
	evil, _ := NewCommittee("evil", 1, 1)
	rc := NewReconfigWith(nil, c1, 0, s0[:3])
	rc.Next = evil // swap the installed committee, keep the cert
	if _, err := VerifyChain(c0, []Reconfig{rc}, plainVerify(nil)); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("err = %v, want ErrBrokenChain", err)
	}
}

func TestQuickQuorumThreshold(t *testing.T) {
	// Property: a certificate verifies iff it carries ≥ 2f+1 distinct
	// valid committee signatures.
	prop := func(fRaw, kRaw uint8) bool {
		f := int(fRaw)%3 + 1
		c, signers := NewCommittee("q", 0, f)
		k := int(kRaw) % (len(signers) + 1)
		cert := MakeCertificate([]byte("stmt"), 0, signers[:k])
		err := cert.Verify(c, nil)
		if k >= c.Quorum() {
			return err == nil
		}
		return errors.Is(err, ErrNoQuorum)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTamperedCertificateNeverVerifies(t *testing.T) {
	schemes(t, func(t *testing.T, memo *sig.Memo) {
		c, signers := NewCommittee("q", 0, 1)
		base := MakeCertificateWith(memo, []byte("statement"), 0, signers[:3])
		// A memo that has accepted the genuine certificate must not
		// vouch for any tampered copy of it.
		if err := base.VerifyWith(memo, c, nil); err != nil {
			t.Fatal(err)
		}
		prop := func(sigIdx, byteIdx uint16, bit uint8) bool {
			cert := Certificate{Epoch: base.Epoch, Statement: append([]byte(nil), base.Statement...)}
			for _, s := range base.Sigs {
				cert.Sigs = append(cert.Sigs, Signature{Validator: s.Validator, Sig: append([]byte(nil), s.Sig...)})
			}
			i := int(sigIdx) % len(cert.Sigs)
			j := int(byteIdx) % len(cert.Sigs[i].Sig)
			cert.Sigs[i].Sig[j] ^= 1 << (bit % 8)
			return cert.Verify(c, nil) != nil && cert.VerifyWith(memo, c, nil) != nil
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}
