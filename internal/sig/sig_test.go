package sig

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
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

// tampered returns a copy of p whose hops a test may write: a PathSig is
// otherwise never written after it is built.
func tampered(p PathSig) PathSig {
	p.Hops = slices.Clone(p.Hops)
	return p
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
	if v.Voter != "carol" || v.Hops[0].Signer != "carol" {
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
	forged := PathSig{Deal: "D1", Voter: "alice", Hops: []Hop{{Signer: "alice"}}}
	copy(forged.Hops[0].Sig[:], kps["mallory"].Sign([]byte("whatever")))
	if err := forged.Verify(pubs, nil); !errors.Is(err, ErrInvalidSignature) {
		t.Fatalf("forged vote error = %v, want ErrInvalidSignature", err)
	}
}

func TestVerifyRejectsBrokenChain(t *testing.T) {
	kps, pubs := keyring("alice", "bob", "carol")
	v := NewVote("D1", "alice", kps["alice"]).Forward("bob", kps["bob"])
	// Corrupt bob's forwarding signature.
	v.Hops[1].Sig[0] ^= 0xff
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
	v.Hops = []Hop{v.Hops[0], v.Hops[2]}
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

func TestVerifyRejectsEmpty(t *testing.T) {
	_, pubs := keyring("alice")
	if err := (PathSig{}).Verify(pubs, nil); !errors.Is(err, ErrEmptyPath) {
		t.Fatalf("empty path error = %v, want ErrEmptyPath", err)
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

// TestForwardSharesNoWritableStorage: a forwarded path's hops are its
// own, so writing them leaves the receiver intact, under either scheme.
func TestForwardSharesNoWritableStorage(t *testing.T) {
	kps, pubs := keyring("alice", "bob", "carol")
	for _, memo := range []*Memo{nil, NewMemo()} {
		v := NewVoteWith(memo, "D1", "alice", kps["alice"]).ForwardWith(memo, "bob", kps["bob"])
		before := fmt.Sprint(v)
		f := v.ForwardWith(memo, "carol", kps["carol"])
		if &f.Hops[0] == &v.Hops[0] {
			t.Fatal("forwarded path shares its hops with the receiver")
		}
		for i := range f.Hops {
			f.Hops[i].Signer = "mallory"
			f.Hops[i].Sig[0] ^= 0xff
		}
		if fmt.Sprint(v) != before {
			t.Fatal("writing the forwarded path changed the receiver")
		}
		if err := v.VerifyWith(memo, pubs, nil); err != nil {
			t.Fatalf("receiver invalid after its forward was written: %v", err)
		}
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
		v := tampered(base)
		i := int(sigIdx) % len(v.Hops)
		j := int(byteIdx) % len(v.Hops[i].Sig)
		v.Hops[i].Sig[j] ^= 1 << (bit % 8)
		return v.Verify(pubs, nil) != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPathSigVerifies: a memo-signed path of k distinct hops verifies
// through a fresh memo, and is rejected with one bit of any hop's
// signature flipped, with a hop other than the last dropped, with two
// hops swapped, with a hop repeated, and when forwarded by a signer the
// keyring lacks. Forwarding never changes its receiver.
func FuzzPathSigVerifies(f *testing.F) {
	names := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	kps, pubs := keyring(names...)
	outsider := GenerateKeyPair("outsider")
	f.Add(uint8(1), uint64(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(4), uint64(7), uint8(2), uint8(63), uint8(7))
	f.Add(uint8(8), uint64(1<<40), uint8(7), uint8(31), uint8(3))
	f.Fuzz(func(t *testing.T, hops uint8, perm uint64, at, byteIdx, bit uint8) {
		k := int(hops)%len(names) + 1
		order := slices.Clone(names)
		for i := len(order) - 1; i > 0; i-- {
			perm = perm*6364136223846793005 + 1442695040888963407
			j := int(perm % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		memo := NewMemo()
		v := NewVoteWith(memo, "D", order[0], kps[order[0]])
		for _, s := range order[1:k] {
			before := tampered(v)
			v = v.ForwardWith(memo, s, kps[s])
			if !slices.Equal(before.Hops, v.Hops[:len(v.Hops)-1]) {
				t.Fatal("forwarded path does not extend its receiver")
			}
		}
		if err := v.VerifyWith(NewMemo(), pubs, nil); err != nil || v.Len() != k {
			t.Fatalf("%d-hop path: len %d, err %v", k, v.Len(), err)
		}
		snapshot := tampered(v)
		rejected := func(what string, p PathSig, want error) {
			t.Helper()
			err := p.VerifyWith(NewMemo(), pubs, nil)
			if err == nil || (want != nil && !errors.Is(err, want)) {
				t.Fatalf("%s in a %d-hop path: err = %v, want %v", what, k, err, want)
			}
		}
		i := int(at) % k

		flipped := tampered(v)
		flipped.Hops[i].Sig[int(byteIdx)%len(flipped.Hops[i].Sig)] ^= 1 << (bit % 8)
		rejected("a flipped bit", flipped, ErrInvalidSignature)

		repeated := tampered(v)
		repeated.Hops = slices.Insert(repeated.Hops, i+1, repeated.Hops[i])
		rejected("a repeated hop", repeated, ErrDuplicateSigner)

		rejected("an outside forwarder", v.ForwardWith(memo, "outsider", outsider), ErrUnknownSigner)

		if k >= 2 {
			dropped := tampered(v)
			dropped.Hops = slices.Delete(dropped.Hops, i%(k-1), i%(k-1)+1)
			rejected("a dropped hop", dropped, nil)

			swapped := tampered(v)
			j := (i + 1 + int(byteIdx)%(k-1)) % k
			swapped.Hops[i], swapped.Hops[j] = swapped.Hops[j], swapped.Hops[i]
			rejected("swapped hops", swapped, nil)
		}
		if !slices.Equal(v.Hops, snapshot.Hops) || v.Deal != snapshot.Deal || v.Voter != snapshot.Voter {
			t.Fatal("forwarding or tampering with copies changed the path")
		}
	})
}
