package sig

import (
	"crypto/ed25519"
	"errors"
	"testing"
	"testing/quick"
)

func keyring(names ...string) (map[string]KeyPair, map[string]ed25519.PublicKey) {
	kps := make(map[string]KeyPair, len(names))
	pubs := make(map[string]ed25519.PublicKey, len(names))
	for _, n := range names {
		kp := GenerateKeyPair(n)
		kps[n] = kp
		pubs[n] = kp.Public
	}
	return kps, pubs
}

func TestGenerateKeyPairDeterministic(t *testing.T) {
	a := GenerateKeyPair("alice")
	b := GenerateKeyPair("alice")
	if string(a.Public) != string(b.Public) {
		t.Fatal("same seed produced different public keys")
	}
	c := GenerateKeyPair("bob")
	if string(a.Public) == string(c.Public) {
		t.Fatal("different seeds produced the same public key")
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	kp := GenerateKeyPair("alice")
	msg := []byte("hello")
	s := kp.Sign(msg)
	if !Verify(kp.Public, msg, s) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("tampered"), s) {
		t.Fatal("signature accepted for wrong message")
	}
	other := GenerateKeyPair("bob")
	if Verify(other.Public, msg, s) {
		t.Fatal("signature accepted under wrong key")
	}
}

func TestVerifyRejectsBadPublicKeyLength(t *testing.T) {
	kp := GenerateKeyPair("alice")
	s := kp.Sign([]byte("m"))
	if Verify(kp.Public[:10], []byte("m"), s) {
		t.Fatal("short public key accepted")
	}
}

func TestHashLengthPrefixing(t *testing.T) {
	// ("ab","c") and ("a","bc") must hash differently.
	a := Hash([]byte("ab"), []byte("c"))
	b := Hash([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("hash boundary collision: length prefixing broken")
	}
}

func TestHashDeterministic(t *testing.T) {
	if Hash([]byte("x")) != Hash([]byte("x")) {
		t.Fatal("hash not deterministic")
	}
	if HashStrings("a", "b") != Hash([]byte("a"), []byte("b")) {
		t.Fatal("HashStrings disagrees with Hash")
	}
}

// TestHashStringsAllocatesNothing pins HashStrings to Hash's stack
// encoding: short parts hash without allocating, to the same digest as
// Hash over the parts as bytes, so every vote message stays the same.
func TestHashStringsAllocatesNothing(t *testing.T) {
	parts := [3]string{"xdeal/vote", "deal-17", "alice"}
	var sum [32]byte
	if allocs := testing.AllocsPerRun(100, func() { sum = HashStrings(parts[0], parts[1], parts[2]) }); allocs != 0 {
		t.Fatalf("HashStrings allocates %v times per call, want 0", allocs)
	}
	if want := Hash([]byte(parts[0]), []byte(parts[1]), []byte(parts[2])); sum != want {
		t.Fatalf("HashStrings = %x, Hash over the same bytes = %x", sum, want)
	}
}

func TestDirectVoteVerifies(t *testing.T) {
	kps, pubs := keyring("alice")
	v := NewVote("D1", "alice", kps["alice"])
	if v.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", v.Len())
	}
	var count int
	if err := v.Verify(pubs, &count); err != nil {
		t.Fatalf("direct vote rejected: %v", err)
	}
	if count != 1 {
		t.Fatalf("verifications = %d, want 1", count)
	}
}

func TestForwardedVoteVerifies(t *testing.T) {
	kps, pubs := keyring("alice", "bob", "carol")
	// Carol votes, Bob forwards, Alice forwards: path [carol bob alice].
	v := NewVote("D1", "carol", kps["carol"]).
		Forward("bob", kps["bob"]).
		Forward("alice", kps["alice"])
	if v.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", v.Len())
	}
	var count int
	if err := v.Verify(pubs, &count); err != nil {
		t.Fatalf("forwarded vote rejected: %v", err)
	}
	if count != 3 {
		t.Fatalf("verifications = %d, want 3", count)
	}
	if v.Voter != "carol" || v.Signers[0] != "carol" {
		t.Fatal("voter not preserved through forwarding")
	}
}

func TestForwardDoesNotMutateOriginal(t *testing.T) {
	kps, pubs := keyring("alice", "bob")
	v := NewVote("D1", "alice", kps["alice"])
	_ = v.Forward("bob", kps["bob"])
	if v.Len() != 1 {
		t.Fatal("Forward mutated the original vote")
	}
	if err := v.Verify(pubs, nil); err != nil {
		t.Fatalf("original vote invalid after Forward: %v", err)
	}
}

func TestVerifyRejectsTamperedVoter(t *testing.T) {
	kps, pubs := keyring("alice", "bob")
	v := NewVote("D1", "alice", kps["alice"])
	v.Voter = "bob" // claim the vote came from bob
	if err := v.Verify(pubs, nil); err == nil {
		t.Fatal("vote with forged voter accepted")
	}
}

func TestVerifyRejectsForgedFirstSignature(t *testing.T) {
	kps, pubs := keyring("alice", "mallory")
	// Mallory fabricates a "vote by alice" signed with her own key.
	forged := PathSig{
		Deal:    "D1",
		Voter:   "alice",
		Signers: []string{"alice"},
		Sigs:    [][]byte{kps["mallory"].Sign([]byte("whatever"))},
	}
	if err := forged.Verify(pubs, nil); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("forged vote error = %v, want ErrInvalidSignature", err)
	}
}

func TestVerifyRejectsBrokenChain(t *testing.T) {
	kps, pubs := keyring("alice", "bob", "carol")
	v := NewVote("D1", "alice", kps["alice"]).Forward("bob", kps["bob"])
	// Corrupt bob's forwarding signature.
	v.Sigs[1][0] ^= 0xff
	if err := v.Verify(pubs, nil); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("broken chain error = %v, want ErrInvalidSignature", err)
	}
	_ = kps["carol"]
}

func TestVerifyRejectsDroppedLink(t *testing.T) {
	kps, pubs := keyring("alice", "bob", "carol")
	v := NewVote("D1", "alice", kps["alice"]).
		Forward("bob", kps["bob"]).
		Forward("carol", kps["carol"])
	// Remove the middle hop: carol's signature no longer covers alice's.
	v.Signers = []string{"alice", "carol"}
	v.Sigs = [][]byte{v.Sigs[0], v.Sigs[2]}
	if err := v.Verify(pubs, nil); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("dropped-link error = %v, want ErrInvalidSignature", err)
	}
}

func TestVerifyRejectsDuplicateSigner(t *testing.T) {
	kps, pubs := keyring("alice", "bob")
	v := NewVote("D1", "alice", kps["alice"]).
		Forward("bob", kps["bob"]).
		Forward("alice", kps["alice"])
	if err := v.Verify(pubs, nil); !errors.Is(err, ErrDuplicateSigner) {
		t.Fatalf("duplicate signer error = %v, want ErrDuplicateSigner", err)
	}
}

func TestVerifyRejectsUnknownSigner(t *testing.T) {
	kps, pubs := keyring("alice")
	outsider := GenerateKeyPair("outsider")
	v := NewVote("D1", "alice", kps["alice"]).Forward("outsider", outsider)
	if err := v.Verify(pubs, nil); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("unknown signer error = %v, want ErrUnknownSigner", err)
	}
}

func TestVerifyRejectsEmptyAndMalformed(t *testing.T) {
	_, pubs := keyring("alice")
	if err := (PathSig{}).Verify(pubs, nil); !errors.Is(err, ErrEmptyPath) {
		t.Fatalf("empty path error = %v, want ErrEmptyPath", err)
	}
	bad := PathSig{Voter: "alice", Signers: []string{"alice"}, Sigs: nil}
	if err := bad.Verify(pubs, nil); !errors.Is(err, ErrMalformedPath) {
		t.Fatalf("malformed error = %v, want ErrMalformedPath", err)
	}
}

func TestVoteIsDealSpecific(t *testing.T) {
	kps, pubs := keyring("alice")
	v := NewVote("D1", "alice", kps["alice"])
	// Replaying the same vote under a different deal id must fail:
	// the deal id is part of the signed message.
	v.Deal = "D2"
	if err := v.Verify(pubs, nil); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("cross-deal replay error = %v, want ErrInvalidSignature", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	kps, pubs := keyring("alice", "bob")
	v := NewVote("D1", "alice", kps["alice"]).Forward("bob", kps["bob"])
	c := v.Clone()
	c.Sigs[0][0] ^= 0xff
	c.Signers[0] = "mallory"
	if err := v.Verify(pubs, nil); err != nil {
		t.Fatalf("mutating clone corrupted original: %v", err)
	}
}

func TestContains(t *testing.T) {
	kps, _ := keyring("alice", "bob")
	v := NewVote("D1", "alice", kps["alice"]).Forward("bob", kps["bob"])
	if !v.Contains("alice") || !v.Contains("bob") {
		t.Fatal("Contains missed a path member")
	}
	if v.Contains("carol") {
		t.Fatal("Contains reported absent party")
	}
}

func TestQuickForwardChainAlwaysVerifies(t *testing.T) {
	// Property: any forwarding chain over distinct parties verifies, and
	// the verification count equals the path length.
	names := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	kps, pubs := keyring(names...)
	prop := func(permSeed uint64, hops uint8) bool {
		n := int(hops)%len(names) + 1
		// Build a pseudo-random order of distinct parties.
		order := make([]string, len(names))
		copy(order, names)
		s := permSeed
		for i := len(order) - 1; i > 0; i-- {
			s = s*6364136223846793005 + 1442695040888963407
			j := int(s % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		v := NewVote("D", order[0], kps[order[0]])
		for i := 1; i < n; i++ {
			v = v.Forward(order[i], kps[order[i]])
		}
		var count int
		if err := v.Verify(pubs, &count); err != nil {
			return false
		}
		return count == n && v.Len() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAnyBitFlipBreaksChain(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	kps, pubs := keyring(names...)
	base := NewVote("D", "a", kps["a"]).
		Forward("b", kps["b"]).
		Forward("c", kps["c"]).
		Forward("d", kps["d"])
	prop := func(sigIdx, byteIdx uint16, bit uint8) bool {
		v := base.Clone()
		i := int(sigIdx) % len(v.Sigs)
		j := int(byteIdx) % len(v.Sigs[i])
		v.Sigs[i][j] ^= 1 << (bit % 8)
		return v.Verify(pubs, nil) != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
