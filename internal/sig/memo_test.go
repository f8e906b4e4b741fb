package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// realVerifications is how many of the checks asked of m missed its own
// earlier acceptances.
func realVerifications(m *Memo) uint64 {
	verifications, hits := m.Stats()
	return verifications - hits
}

func flipBit(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0x10
	return out
}

// TestMemoNeverAcceptsWhatVerifyRejects: a memo accepts a fact only
// when it checks, never remembers a rejection, and lets no accepted fact
// vouch for any neighbour of it. The two schemes do not mix: a fact is
// rejected by plain Verify and an ed25519 signature by a memo.
func TestMemoNeverAcceptsWhatVerifyRejects(t *testing.T) {
	kp := GenerateKeyPair("alice")
	other := GenerateKeyPair("bob")
	msg := []byte("the certified statement")
	m := NewMemo()
	s := m.Sign(kp, msg)

	for i := 0; i < 2; i++ {
		if !m.Verify(kp.Public, msg, s) {
			t.Fatalf("valid fact rejected on check %d", i)
		}
	}
	if v, hits := m.Stats(); v != 2 || hits != 1 {
		t.Fatalf("stats after two checks of one fact = (%d, %d), want (2, 1)", v, hits)
	}

	forgeries := map[string][3][]byte{
		"flipped fact bit":    {kp.Public, msg, flipBit(s)},
		"flipped key half":    {kp.Public, msg, append(flipBit(s[:32]), s[32:]...)},
		"flipped message bit": {kp.Public, flipBit(msg), s},
		"another key":         {other.Public, msg, s},
		"short key":           {kp.Public[:10], msg, s},
		"short fact":          {kp.Public, msg, s[:63]},
		"ed25519 signature":   {kp.Public, msg, kp.Sign(msg)},
	}
	for name, triple := range forgeries {
		for i := 0; i < 2; i++ {
			if m.Verify(triple[0], triple[1], triple[2]) {
				t.Fatalf("%s accepted on check %d", name, i)
			}
		}
		if NewMemo().Verify(triple[0], triple[1], triple[2]) {
			t.Fatalf("%s accepted through a fresh memo", name)
		}
	}
	if len(m.accepted) != 1 {
		t.Fatalf("memo holds %d facts, want only the accepted one", len(m.accepted))
	}
	if v, hits := m.Stats(); v != 2+2*uint64(len(forgeries)) || hits != 1 {
		t.Fatalf("stats = (%d, %d), want (%d, 1): rejections are never hits", v, hits, 2+2*len(forgeries))
	}
	if Verify(kp.Public, msg, s) {
		t.Fatal("a fact passed plain ed25519 Verify")
	}
}

// TestFactUnderAnotherKeysPublicHalfRejected: a holder of one fact who
// swaps in another key's public half — the one move a forger can make
// without the digest key — gets a fact its named signer never made, and
// no memo accepts it under either key.
func TestFactUnderAnotherKeysPublicHalfRejected(t *testing.T) {
	alice, bob := GenerateKeyPair("alice"), GenerateKeyPair("bob")
	msg := []byte("pay bob")
	m := NewMemo()
	genuine := m.Sign(alice, msg)
	forged := append(append([]byte(nil), bob.Public...), genuine[32:]...)
	if m.Verify(bob.Public, msg, forged) {
		t.Fatal("alice's digest accepted under bob's public half")
	}
	if m.Verify(alice.Public, msg, forged) {
		t.Fatal("a fact naming bob accepted under alice's key")
	}
	if !m.Verify(bob.Public, msg, m.Sign(bob, msg)) {
		t.Fatal("bob's own fact rejected")
	}
}

// TestHashMatchesStreamedEncoding pins Hash's input format — 8-byte
// big-endian length, then the part — on inputs that fit its stack buffer
// and on one that does not.
func TestHashMatchesStreamedEncoding(t *testing.T) {
	for _, parts := range [][][]byte{
		{},
		{nil, []byte("a")},
		{bytes.Repeat([]byte{1}, 32), []byte("statement"), bytes.Repeat([]byte{2}, 64)},
		{[]byte("short"), bytes.Repeat([]byte{7}, 1000)},
	} {
		h := sha256.New()
		for _, p := range parts {
			var n [8]byte
			binary.BigEndian.PutUint64(n[:], uint64(len(p)))
			h.Write(n[:])
			h.Write(p)
		}
		if got := Hash(parts...); !bytes.Equal(got[:], h.Sum(nil)) {
			t.Fatalf("Hash of %d parts differs from the streamed encoding", len(parts))
		}
	}
}

func TestNilMemoVerifiesPlainly(t *testing.T) {
	kp := GenerateKeyPair("alice")
	s := kp.Sign([]byte("m"))
	var m *Memo
	if !m.Verify(kp.Public, []byte("m"), s) || m.Verify(kp.Public, []byte("n"), s) {
		t.Fatal("nil memo does not behave like Verify")
	}
	if v, hits := m.Stats(); v != 0 || hits != 0 {
		t.Fatalf("nil memo stats = (%d, %d), want zeros", v, hits)
	}
}

// TestMemoVerifiesPathPrefixOnce: a vote forwarded hop by hop is shown
// to a contract as p, p·q, p·q·r, …; with a memo each signature is new
// once while every check is still counted.
func TestMemoVerifiesPathPrefixOnce(t *testing.T) {
	kps, pubs := keyring("a", "b", "c", "d")
	m := NewMemo()
	vote := NewVoteWith(m, "D", "a", kps["a"])
	asked := 0
	for _, hop := range []string{"", "b", "c", "d"} {
		if hop != "" {
			vote = vote.ForwardWith(m, hop, kps[hop])
		}
		if err := vote.VerifyWith(m, pubs, &asked); err != nil {
			t.Fatalf("path of length %d: %v", vote.Len(), err)
		}
	}
	if asked != 1+2+3+4 {
		t.Fatalf("verifications counted = %d, want 10", asked)
	}
	if got := realVerifications(m); got != 4 {
		t.Fatalf("memo misses = %d, want one per distinct signature = 4", got)
	}

	// A forged last hop is still caught behind a fully memoised prefix.
	forged := tampered(vote)
	copy(forged.Hops[3].Sig[:], flipBit(forged.Hops[3].Sig[:]))
	if err := forged.VerifyWith(m, pubs, nil); err == nil {
		t.Fatal("forged hop accepted behind a memoised prefix")
	}
}

// TestMemoConcurrentUse hammers one memo from 16 goroutines (run under
// -race) and checks the counters come out as if the checks had been made
// one at a time: every repeat of an accepted triple is a hit.
func TestMemoConcurrentUse(t *testing.T) {
	const goroutines, distinct, rounds = 16, 8, 4
	kp := GenerateKeyPair("alice")
	m := NewMemo()
	msgs := make([][]byte, distinct)
	sigs := make([][]byte, distinct)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("statement %d", i))
		sigs[i] = m.Sign(kp, msgs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range msgs {
					if !m.Verify(kp.Public, msgs[i], sigs[i]) {
						t.Error("valid signature rejected")
					}
					if m.Verify(kp.Public, msgs[i], sigs[(i+1)%distinct]) {
						t.Error("mismatched signature accepted")
					}
				}
			}
		}()
	}
	wg.Wait()
	valid := uint64(goroutines * rounds * distinct)
	if v, hits := m.Stats(); v != 2*valid || hits != valid-distinct {
		t.Fatalf("stats = (%d, %d), want (%d, %d)", v, hits, 2*valid, valid-distinct)
	}
}

func TestGenerateKeyPairConcurrent(t *testing.T) {
	const goroutines = 16
	seeds := []string{"race/a", "race/b", "race/c"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, seed := range seeds {
				if got := GenerateKeyPair(seed); !bytes.Equal(got.Public, deriveKeyPair(seed).Public) {
					t.Errorf("GenerateKeyPair(%q) differs from a fresh derivation", seed)
				}
			}
		}()
	}
	wg.Wait()
}

func TestKeyTableStopsAdmittingWhenFull(t *testing.T) {
	tab := newKeyTable(2)
	for _, seed := range []string{"a", "b", "c", "d", "c"} {
		got, want := tab.get(seed), deriveKeyPair(seed)
		if !bytes.Equal(got.Public, want.Public) {
			t.Fatalf("seed %q: key differs from a fresh derivation", seed)
		}
		msg := []byte("m")
		if !Verify(want.Public, msg, got.Sign(msg)) {
			t.Fatalf("seed %q: private half does not match", seed)
		}
	}
	if len(tab.pairs) != 2 {
		t.Fatalf("table holds %d entries, want it capped at 2", len(tab.pairs))
	}
}

// TestMemoSignMakesFacts: a signature made through a memo is a fact —
// the signer's public key, then the digest of key and message — that
// depends on neither the memo nor any earlier call, and every caller
// gets its own copy. A nil memo signs with ed25519.
func TestMemoSignMakesFacts(t *testing.T) {
	kp := GenerateKeyPair("alice")
	msg := []byte("memo-sign statement")
	a, b := NewMemo(), NewMemo()

	want := a.Sign(kp, msg)
	if d := factDigest(kp.Public, msg); !bytes.Equal(want[:32], kp.Public) || !bytes.Equal(want[32:], d[:]) {
		t.Fatal("memo signature is not the public key followed by the fact digest")
	}
	got := b.Sign(kp, msg)
	if !bytes.Equal(got, want) {
		t.Fatal("two memos made different facts for one key and message")
	}
	got[0] ^= 0xff // a caller mutating a returned fact
	if !bytes.Equal(a.Sign(kp, msg), want) || !bytes.Equal(b.Sign(kp, msg), want) {
		t.Fatal("mutating a returned fact changed later results")
	}
	if !b.Verify(kp.Public, msg, a.Sign(kp, msg)) {
		t.Fatal("memo b rejected memo a's fact")
	}
	var plain *Memo
	if s := plain.Sign(kp, msg); !bytes.Equal(s, kp.Sign(msg)) || bytes.Equal(s, want) {
		t.Fatal("nil memo does not sign like KeyPair.Sign")
	}
}

// TestMemoSignIgnoresReassignedPublic: KeyPair.Public is an exported
// field, so a caller can give key b a's public key. A fact names the
// public half of the private key that made it, so b's fact is never a's
// and is accepted only under b's real key.
func TestMemoSignIgnoresReassignedPublic(t *testing.T) {
	a, b := GenerateKeyPair("reassigned/a"), GenerateKeyPair("reassigned/b")
	bPub := b.Public
	b.Public = a.Public
	msg := []byte("reassigned-key statement")
	m := NewMemo()
	got := m.Sign(b, msg)
	if bytes.Equal(got, m.Sign(a, msg)) {
		t.Fatal("memo made a's fact for b")
	}
	if NewMemo().Verify(b.Public, msg, got) {
		t.Fatal("b's fact accepted under the reassigned b.Public")
	}
	if !NewMemo().Verify(bPub, msg, got) {
		t.Fatal("b's fact rejected under b's own public key")
	}
}

// FuzzMemoSignVerifies: for any key seed and message, a fact made
// through one memo verifies through a fresh one, and is rejected with
// one bit flipped, under another key's public half, and by plain ed25519
// Verify; an ed25519 signature of the same message is rejected by a memo.
func FuzzMemoSignVerifies(f *testing.F) {
	digest := sha256.Sum256([]byte("xdeal/fuzz"))
	f.Add("alice", []byte{})
	f.Add("bob", bytes.Repeat([]byte{0xa5}, 1024))
	f.Add("validator/v0", digest[:])
	other := GenerateKeyPair("xdeal/fuzz/other")
	f.Fuzz(func(t *testing.T, seed string, msg []byte) {
		kp := GenerateKeyPair(seed)
		s := NewMemo().Sign(kp, msg)
		if !NewMemo().Verify(kp.Public, msg, s) {
			t.Fatal("memo-made fact rejected through a fresh memo")
		}
		if NewMemo().Verify(kp.Public, msg, flipBit(s)) {
			t.Fatal("bit-flipped fact accepted through a fresh memo")
		}
		if seed != "xdeal/fuzz/other" && NewMemo().Verify(other.Public, msg, s) {
			t.Fatal("fact accepted under another key's public half")
		}
		if Verify(kp.Public, msg, s) {
			t.Fatal("fact accepted by plain Verify")
		}
		if NewMemo().Verify(kp.Public, msg, kp.Sign(msg)) {
			t.Fatal("ed25519 signature accepted through a memo")
		}
	})
}

// TestMemoSignAndVerifyConcurrent signs and verifies from 16 goroutines
// through two memos (run under -race): every fact matches the one signed
// beforehand, and each memo's counters come out as if its checks had been
// made one at a time.
func TestMemoSignAndVerifyConcurrent(t *testing.T) {
	const goroutines, distinct = 16, 8
	kp := GenerateKeyPair("carol")
	msgs := make([][]byte, distinct)
	want := make([][]byte, distinct)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent statement %d", i))
		want[i] = NewMemo().Sign(kp, msgs[i])
	}
	memos := [2]*Memo{NewMemo(), NewMemo()}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(m *Memo) {
			defer wg.Done()
			for i := range msgs {
				s := m.Sign(kp, msgs[i])
				if !bytes.Equal(s, want[i]) {
					t.Error("memo fact differs from the one signed beforehand")
				}
				if !m.Verify(kp.Public, msgs[i], s) {
					t.Error("valid fact rejected")
				}
				s[0] ^= 0xff
				if m.Verify(kp.Public, msgs[i], s) {
					t.Error("tampered fact accepted")
				}
			}
		}(memos[g%2])
	}
	wg.Wait()
	for i, m := range memos {
		valid := uint64(goroutines / 2 * distinct)
		if v, hits := m.Stats(); v != 2*valid || hits != valid-distinct {
			t.Fatalf("memo %d stats = (%d, %d), want (%d, %d)", i, v, hits, 2*valid, valid-distinct)
		}
	}
}
