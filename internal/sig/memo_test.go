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
// earlier acceptances: each ran ed25519 unless the process-wide answer
// table already held the triple.
func realVerifications(m *Memo) uint64 {
	verifications, hits := m.Stats()
	return verifications - hits
}

func flipBit(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0x10
	return out
}

func TestMemoNeverAcceptsWhatVerifyRejects(t *testing.T) {
	kp := GenerateKeyPair("alice")
	other := GenerateKeyPair("bob")
	msg := []byte("the certified statement")
	s := kp.Sign(msg)

	m := NewMemo()
	for i := 0; i < 2; i++ {
		if !m.Verify(kp.Public, msg, s) {
			t.Fatalf("valid signature rejected on check %d", i)
		}
	}
	if v, hits := m.Stats(); v != 2 || hits != 1 {
		t.Fatalf("stats after two checks of one triple = (%d, %d), want (2, 1)", v, hits)
	}

	// One accepted triple must not vouch for any neighbour of it, and a
	// rejection must not be remembered: each is re-checked, and rejected,
	// every time.
	forgeries := map[string][3][]byte{
		"flipped signature bit": {kp.Public, msg, flipBit(s)},
		"flipped message bit":   {kp.Public, flipBit(msg), s},
		"another key":           {other.Public, msg, s},
		"short key":             {kp.Public[:10], msg, s},
	}
	for name, triple := range forgeries {
		for i := 0; i < 2; i++ {
			if m.Verify(triple[0], triple[1], triple[2]) {
				t.Fatalf("%s accepted on check %d", name, i)
			}
		}
	}
	if len(m.accepted) != 1 {
		t.Fatalf("memo holds %d triples, want only the accepted one", len(m.accepted))
	}
	if v, hits := m.Stats(); v != 10 || hits != 1 {
		t.Fatalf("stats = (%d, %d), want (10, 1): rejections are never hits", v, hits)
	}

	// The valid twin is now in the process-wide answer table, yet a fresh
	// memo still rejects every forgery, and none of them enters the table.
	fresh := NewMemo()
	for name, triple := range forgeries {
		if fresh.Verify(triple[0], triple[1], triple[2]) {
			t.Fatalf("%s accepted through a fresh memo", name)
		}
		if answersHold(Hash(triple[0], triple[1], triple[2])) {
			t.Fatalf("%s entered the answer table", name)
		}
	}
	if !answersHold(Hash(kp.Public, msg, s)) {
		t.Fatal("the accepted triple is not in the answer table")
	}

	// A triple signed through a memo enters the table without ever being
	// verified, and vouches for none of its neighbours either.
	signedMsg := []byte("the memo-signed statement")
	signed := NewMemo().Sign(kp, signedMsg)
	if !answersHold(Hash(kp.Public, signedMsg, signed)) {
		t.Fatal("the memo-signed triple is not in the answer table")
	}
	for name, triple := range map[string][3][]byte{
		"flipped signature bit": {kp.Public, signedMsg, flipBit(signed)},
		"flipped message bit":   {kp.Public, flipBit(signedMsg), signed},
		"another key":           {other.Public, signedMsg, signed},
		"short key":             {kp.Public[:10], signedMsg, signed},
	} {
		if NewMemo().Verify(triple[0], triple[1], triple[2]) {
			t.Fatalf("%s of a memo-signed triple accepted through a fresh memo", name)
		}
		if answersHold(Hash(triple[0], triple[1], triple[2])) {
			t.Fatalf("%s of a memo-signed triple entered the answer table", name)
		}
	}
}

// answersHold reports whether the process-wide table holds an accepted
// triple under key.
func answersHold(key [32]byte) bool {
	answers.mu.Lock()
	defer answers.mu.Unlock()
	_, ok := answers.accepted.get(key)
	return ok
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
// to a contract as p, p·q, p·q·r, …; with a memo each signature is
// checked cryptographically once while every check is still counted.
func TestMemoVerifiesPathPrefixOnce(t *testing.T) {
	kps, pubs := keyring("a", "b", "c", "d")
	m := NewMemo()
	vote := NewVote("D", "a", kps["a"])
	asked := 0
	for _, hop := range []string{"", "b", "c", "d"} {
		if hop != "" {
			vote = vote.Forward(hop, kps[hop])
		}
		if err := vote.VerifyWith(m, pubs, &asked); err != nil {
			t.Fatalf("path of length %d: %v", vote.Len(), err)
		}
	}
	if asked != 1+2+3+4 {
		t.Fatalf("verifications counted = %d, want 10", asked)
	}
	if got := realVerifications(m); got != 4 {
		t.Fatalf("real verifications = %d, want one per distinct signature = 4", got)
	}

	// A forged last hop is still caught behind a fully memoised prefix.
	forged := vote.Clone()
	forged.Sigs[3] = flipBit(forged.Sigs[3])
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
	msgs := make([][]byte, distinct)
	sigs := make([][]byte, distinct)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("statement %d", i))
		sigs[i] = kp.Sign(msgs[i])
	}
	m := NewMemo()
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

// TestMemoSignMatchesKeyPairSign: a signature made through a memo is the
// one KeyPair.Sign makes, whether it is signed (memo A) or served from
// the answer table (memo B), and every caller gets its own copy.
func TestMemoSignMatchesKeyPairSign(t *testing.T) {
	kp := GenerateKeyPair("alice")
	msg := []byte("memo-sign statement")
	want := kp.Sign(msg)
	a, b := NewMemo(), NewMemo()

	got := a.Sign(kp, msg)
	if !bytes.Equal(got, want) {
		t.Fatal("memo A's signature differs from KeyPair.Sign")
	}
	answers.mu.Lock()
	stored, ok := answers.signed.get(Hash(kp.Public, msg))
	answers.mu.Unlock()
	if !ok || !bytes.Equal(stored[:], want) {
		t.Fatal("memo A's signature is not in the answer table")
	}
	got[0] ^= 0xff // a caller mutating a signed result
	served := b.Sign(kp, msg)
	if !bytes.Equal(served, want) {
		t.Fatal("memo B's signature differs from KeyPair.Sign after A's result was mutated")
	}
	served[1] ^= 0xff // a caller mutating a served result
	if !bytes.Equal(a.Sign(kp, msg), want) || !bytes.Equal(b.Sign(kp, msg), want) {
		t.Fatal("mutating a returned signature changed later results")
	}
	var plain *Memo
	if !bytes.Equal(plain.Sign(kp, msg), want) {
		t.Fatal("nil memo does not sign like KeyPair.Sign")
	}
}

// TestMemoSignIgnoresReassignedPublic: KeyPair.Public is an exported
// field, so a caller can give key b a's public key. The answer table
// knows each key by its private half, so it never serves b a's
// signature, and it vouches for b's signature only under b's real key.
func TestMemoSignIgnoresReassignedPublic(t *testing.T) {
	a, b := GenerateKeyPair("reassigned/a"), GenerateKeyPair("reassigned/b")
	bPub := b.Public
	b.Public = a.Public
	msg := []byte("reassigned-key statement")
	m := NewMemo()
	if !bytes.Equal(m.Sign(a, msg), a.Sign(msg)) {
		t.Fatal("memo signature for a differs from a.Sign")
	}
	got := m.Sign(b, msg)
	if !bytes.Equal(got, b.Sign(msg)) {
		t.Fatal("memo served another key's signature for b")
	}
	if NewMemo().Verify(b.Public, msg, got) {
		t.Fatal("b's signature accepted under the reassigned b.Public")
	}
	if !NewMemo().Verify(bPub, msg, got) {
		t.Fatal("b's signature rejected under b's own public key")
	}
}

// FuzzMemoSignVerifies: for any key seed and message, a signature made
// through a memo is KeyPair.Sign's, verifies plainly, and with one bit
// flipped is rejected through a fresh memo.
func FuzzMemoSignVerifies(f *testing.F) {
	digest := sha256.Sum256([]byte("xdeal/fuzz"))
	f.Add("alice", []byte{})
	f.Add("bob", bytes.Repeat([]byte{0xa5}, 1024))
	f.Add("validator/v0", digest[:])
	f.Fuzz(func(t *testing.T, seed string, msg []byte) {
		kp := GenerateKeyPair(seed)
		s := NewMemo().Sign(kp, msg)
		if !bytes.Equal(s, kp.Sign(msg)) {
			t.Fatal("memo signature differs from KeyPair.Sign")
		}
		if !Verify(kp.Public, msg, s) {
			t.Fatal("memo signature rejected by Verify")
		}
		if NewMemo().Verify(kp.Public, msg, flipBit(s)) {
			t.Fatal("bit-flipped memo signature accepted through a fresh memo")
		}
	})
}

// TestSharedTableDropsOldestGeneration: a table of capacity 2 keeps at
// most two generations of two entries, drops the oldest when the newest
// fills, keeps an entry in use by moving it forward, and answers every
// call correctly whatever it has dropped.
func TestSharedTableDropsOldestGeneration(t *testing.T) {
	tab := newSharedTable(2)
	kp := GenerateKeyPair("alice")
	msgs := make([][]byte, 5)
	keys := make([][32]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("generation statement %d", i))
		s := tab.sign(kp, msgs[i])
		if !bytes.Equal(s, kp.Sign(msgs[i])) {
			t.Fatalf("message %d: table signature differs from KeyPair.Sign", i)
		}
		keys[i] = Hash(kp.Public, msgs[i], s)
		if !tab.verify(keys[i], kp.Public, msgs[i], s) {
			t.Fatalf("message %d: valid signature rejected", i)
		}
		if i == 2 {
			// Entry 1 sits in the older generation; using it moves it
			// into the newer one, so the next turnover keeps it.
			if _, ok := tab.accepted.get(keys[1]); !ok {
				t.Fatal("entry 1 dropped after one turnover")
			}
		}
	}
	for name, g := range map[string]int{
		"accepted": len(tab.accepted.cur) + len(tab.accepted.old),
		"signed":   len(tab.signed.cur) + len(tab.signed.old),
	} {
		if g > 4 {
			t.Fatalf("%s holds %d entries, want at most two generations of 2", name, g)
		}
	}
	// Entries 0 and 1 aged together; the second turnover dropped entry 0
	// but not entry 1, which was used in between.
	for i, want := range []bool{false, true, true, true, true} {
		_, inCur := tab.accepted.cur[keys[i]]
		_, inOld := tab.accepted.old[keys[i]]
		if held := inCur || inOld; held != want {
			t.Fatalf("entry %d held = %t, want %t", i, held, want)
		}
	}
	// Dropped entries are recomputed, not lost.
	if !bytes.Equal(tab.sign(kp, msgs[0]), kp.Sign(msgs[0])) {
		t.Fatal("re-signing a dropped entry differs from KeyPair.Sign")
	}
}

// TestMemoSignAndVerifyConcurrent signs and verifies from 16 goroutines
// through two memos sharing the answer table (run under -race): every
// result matches the plain primitives, and each memo's counters come out
// as if its checks had been made one at a time.
func TestMemoSignAndVerifyConcurrent(t *testing.T) {
	const goroutines, distinct = 16, 8
	kp := GenerateKeyPair("carol")
	msgs := make([][]byte, distinct)
	want := make([][]byte, distinct)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent statement %d", i))
		want[i] = kp.Sign(msgs[i])
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
					t.Error("memo signature differs from KeyPair.Sign")
				}
				if !m.Verify(kp.Public, msgs[i], s) {
					t.Error("valid signature rejected")
				}
				s[0] ^= 0xff
				if m.Verify(kp.Public, msgs[i], s) {
					t.Error("tampered signature accepted")
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
