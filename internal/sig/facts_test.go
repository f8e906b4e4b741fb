package sig_test

import (
	"crypto/ed25519"
	"errors"
	"reflect"
	"testing"

	"xdeal/internal/bft"
	"xdeal/internal/sig"
)

// TestMemoSignedTriplesNeedNoVerify: every signature a protocol makes
// through a memo — votes, forwarded paths, a quorum certificate and a
// committee handover — is accepted through a fresh memo with no ed25519
// at all: each is a fact that plain ed25519 verification rejects. The
// fresh memo still counts each check as a miss of its own, and signing
// again through another memo makes the same certificate.
func TestMemoSignedTriplesNeedNoVerify(t *testing.T) {
	signer := sig.NewMemo()
	names := []string{"nv/a", "nv/b", "nv/c", "nv/d"}
	kps := make(map[string]sig.KeyPair, len(names))
	pubs := make(map[string]ed25519.PublicKey, len(names))
	for _, n := range names {
		kps[n] = sig.GenerateKeyPair(n)
		pubs[n] = kps[n].Public
	}
	direct := sig.NewVoteWith(signer, "nv/D", "nv/b", kps["nv/b"])
	path := sig.NewVoteWith(signer, "nv/D", "nv/a", kps["nv/a"])
	for _, hop := range names[1:] {
		path = path.ForwardWith(signer, hop, kps[hop])
	}
	committee, signers := bft.NewCommittee("nv", 0, 1)
	cert := bft.MakeCertificateWith(signer, []byte("nv/statement"), 0, signers[:committee.Quorum()])
	next, _ := bft.NewCommittee("nv", 1, 1)
	handover := bft.NewReconfigWith(signer, next, 0, signers)

	again := bft.MakeCertificateWith(sig.NewMemo(), cert.Statement, 0, signers[:committee.Quorum()])
	if !reflect.DeepEqual(again, cert) {
		t.Fatal("re-signed certificate differs")
	}
	fresh := sig.NewMemo()
	asked := 0
	for _, vote := range []sig.PathSig{direct, path} {
		if err := vote.VerifyWith(fresh, pubs, &asked); err != nil {
			t.Fatalf("vote of length %d: %v", vote.Len(), err)
		}
		if err := vote.Verify(pubs, nil); !errors.Is(err, sig.ErrInvalidSignature) {
			t.Fatalf("vote of length %d checked plainly: err = %v, want ErrInvalidSignature", vote.Len(), err)
		}
	}
	if err := cert.VerifyWith(fresh, committee, &asked); err != nil {
		t.Fatalf("certificate: %v", err)
	}
	if err := cert.Verify(committee, nil); !errors.Is(err, bft.ErrBadSignature) {
		t.Fatalf("certificate checked plainly: err = %v, want ErrBadSignature", err)
	}
	verifyCert := func(c bft.Certificate, com bft.Committee) error { return c.VerifyWith(fresh, com, &asked) }
	if _, err := bft.VerifyChain(committee, []bft.Reconfig{handover}, verifyCert); err != nil {
		t.Fatalf("handover: %v", err)
	}
	if want := 1 + 4 + 3 + 4; asked != want {
		t.Fatalf("checks asked = %d, want %d", asked, want)
	}
	if v, hits := fresh.Stats(); v != uint64(asked) || hits != 0 {
		t.Fatalf("fresh memo stats = (%d, %d), want (%d, 0): every check is a miss of its own", v, hits, asked)
	}
}
