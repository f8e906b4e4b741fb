// Package sig provides the cryptographic primitives used by the deal
// protocols: Ed25519 key pairs for parties and validators, SHA-256
// hashing, and the path signatures of the timelock commit protocol
// (Herlihy–Liskov–Shrira §5).
//
// A path signature is a chain of signatures over a commit vote. The voter
// signs the vote message; each party that forwards the vote signs the
// previous signature in the chain. An escrow contract accepts a vote with
// path p only if it arrives before t0 + |p|·Δ, so the chain length is
// load-bearing: it proves how many forwarding hops the vote took and
// therefore how late it may legitimately be.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// KeyPair holds an Ed25519 key pair for a party or validator.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair derives a key pair deterministically from a seed string.
// Deterministic keys keep simulations reproducible; the seed plays the
// role of the party's identity secret. Being a pure function of the seed,
// each identity is derived once per process and served from a table
// afterwards; the returned key material is shared and must not be
// modified.
func GenerateKeyPair(seed string) KeyPair { return keyPairs.get(seed) }

func deriveKeyPair(seed string) KeyPair {
	h := sha256.Sum256([]byte("xdeal/keyseed/" + seed))
	priv := ed25519.NewKeyFromSeed(h[:])
	return KeyPair{
		Public:  priv.Public().(ed25519.PublicKey),
		private: priv,
	}
}

// keyTableCap bounds the key-pair table: a population sweep reuses a few
// hundred party and validator identities, and a stream of fresh ones
// must not grow the process.
const keyTableCap = 4096

var keyPairs = newKeyTable(keyTableCap)

// keyTable remembers derived key pairs by seed, for any number of
// goroutines. Once it holds max entries it admits no more and later
// seeds are derived on every call.
type keyTable struct {
	mu    sync.Mutex
	max   int
	pairs map[string]KeyPair
}

func newKeyTable(max int) *keyTable {
	return &keyTable{max: max, pairs: make(map[string]KeyPair)}
}

func (t *keyTable) get(seed string) KeyPair {
	t.mu.Lock()
	kp, ok := t.pairs[seed]
	t.mu.Unlock()
	if ok {
		return kp
	}
	kp = deriveKeyPair(seed)
	t.mu.Lock()
	if len(t.pairs) < t.max {
		t.pairs[seed] = kp
	}
	t.mu.Unlock()
	return kp
}

// Sign signs msg with the private key.
func (k KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// Memo remembers the (key, message, signature) triples Verify has
// accepted, so one world checks each distinct signature once however
// many contracts are shown it: the same 2f+1 certificate at every escrow
// of a deal, the prefix p of a path signature p·q at every hop. Its
// counters score only those repeats within the world. A triple it has
// not seen is answered by the process-wide answer table (see answers),
// which runs ed25519 only for triples no world has had accepted or
// signed yet. Only acceptances, and the table's own signatures, are
// recorded — a rejected or tampered triple is verified for real every
// time — so a memo never accepts what Verify would reject. Triples are kept as
// Hash(pub, msg, sig), whose length prefixes keep distinct triples
// distinct. It is safe for concurrent use, and a nil *Memo verifies and
// signs plainly.
type Memo struct {
	mu            sync.Mutex
	accepted      map[[32]byte]struct{}
	verifications uint64
	hits          uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{accepted: make(map[[32]byte]struct{})}
}

// Verify reports whether sig is a valid signature of msg under pub,
// running the signature scheme only for triples not accepted before.
func (m *Memo) Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if m == nil {
		return Verify(pub, msg, sig)
	}
	key := Hash(pub, msg, sig)
	m.mu.Lock()
	m.verifications++
	_, hit := m.accepted[key]
	if hit {
		m.hits++
	}
	m.mu.Unlock()
	if hit {
		return true
	}
	if !answers.verify(key, pub, msg, sig) {
		return false
	}
	m.mu.Lock()
	if _, raced := m.accepted[key]; raced {
		// Another goroutine accepted the same triple meanwhile. Count
		// it as the hit it would have been one at a time, so the
		// counters do not depend on goroutine timing.
		m.hits++
	} else {
		m.accepted[key] = struct{}{}
	}
	m.mu.Unlock()
	return true
}

// Stats returns how many verifications were asked of the memo and how
// many of them repeated a triple the memo had already accepted. Misses
// the answer table serves still count as misses, so both figures are
// the same whatever other worlds the process has run.
func (m *Memo) Stats() (verifications, hits uint64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verifications, m.hits
}

// Sign returns key's signature of msg, the bytes key.Sign returns. Under
// a non-nil memo the signature comes from the process-wide answer table
// when any world has asked for it before: ed25519 signing is
// deterministic (RFC 8032), so the stored bytes are exactly what signing
// again would produce. The table knows the signing key by its private
// half, so reassigning key.Public cannot make it serve another key's
// signature. Every call returns a fresh slice the caller may modify.
func (m *Memo) Sign(key KeyPair, msg []byte) []byte {
	if m == nil {
		return key.Sign(msg)
	}
	return answers.sign(key, msg)
}

// answerTableCap bounds each generation of the answer table: a
// population sweep reuses a few thousand distinct signatures, and a
// stream of fresh ones must not grow the process.
const answerTableCap = 32768

// answers is the process-wide answer table under every memo. Unlike a
// memo it counts nothing that reaches a metric, so it can be shared by
// every world without letting one world's work show in another's: it
// only saves re-running ed25519 on inputs whose answer some world already
// computed. A triple is answered without ed25519 once any world has had
// it accepted or signed it.
var answers = newSharedTable(answerTableCap)

// sharedTable holds what ed25519 computed for earlier inputs — accepted
// (pub, msg, sig) triples and (pub, msg) signatures — for any number of
// goroutines. A signature it makes is also recorded as accepted under
// the signing key's own public half: ed25519 signatures always verify
// under the key pair that made them, so the table still holds nothing
// Verify would reject.
type sharedTable struct {
	mu       sync.Mutex
	accepted generations[struct{}]
	signed   generations[[ed25519.SignatureSize]byte]
	// verifyRuns and signRuns count the table's calls to Verify and
	// KeyPair.Sign, for tests; no metric reads them.
	verifyRuns, signRuns uint64
}

func newSharedTable(max int) *sharedTable {
	return &sharedTable{
		accepted: newGenerations[struct{}](max),
		signed:   newGenerations[[ed25519.SignatureSize]byte](max),
	}
}

// verify is Verify for the triple that key hashes, run only if no
// earlier call accepted it. Rejections are not recorded.
func (t *sharedTable) verify(key [32]byte, pub ed25519.PublicKey, msg, sig []byte) bool {
	t.mu.Lock()
	_, ok := t.accepted.get(key)
	t.mu.Unlock()
	if ok {
		return true
	}
	valid := Verify(pub, msg, sig)
	t.mu.Lock()
	t.verifyRuns++
	if valid {
		t.accepted.put(key, struct{}{})
	}
	t.mu.Unlock()
	return valid
}

// sign is key.Sign(msg), signed only if no earlier call signed msg
// under key, and always returned as a fresh slice. Both the signature
// and the acceptance it implies are keyed by the public half of key's
// private key, not by key.Public, which a caller may have reassigned.
func (t *sharedTable) sign(key KeyPair, msg []byte) []byte {
	pub := key.private[ed25519.SeedSize:]
	h := Hash(pub, msg)
	t.mu.Lock()
	s, ok := t.signed.get(h)
	t.mu.Unlock()
	if ok {
		return append([]byte(nil), s[:]...)
	}
	out := key.Sign(msg)
	copy(s[:], out)
	t.mu.Lock()
	t.signRuns++
	t.signed.put(h, s)
	t.accepted.put(Hash(pub, msg, out), struct{}{})
	t.mu.Unlock()
	return out
}

// generations is a map bounded to two generations of at most max
// entries each: when the newer one fills, the older one is dropped and
// a fresh one begins. An entry found in the older generation moves to
// the newer one, so entries in use survive the turnover. The caller
// synchronises access.
type generations[V any] struct {
	max      int
	cur, old map[[32]byte]V
}

func newGenerations[V any](max int) generations[V] {
	return generations[V]{max: max, cur: make(map[[32]byte]V)}
}

func (g *generations[V]) get(k [32]byte) (V, bool) {
	if v, ok := g.cur[k]; ok {
		return v, true
	}
	v, ok := g.old[k]
	if ok {
		g.put(k, v)
	}
	return v, ok
}

func (g *generations[V]) put(k [32]byte, v V) {
	if len(g.cur) >= g.max {
		g.old, g.cur = g.cur, make(map[[32]byte]V)
	}
	g.cur[k] = v
}

// Hash returns the SHA-256 hash of the concatenation of parts, with
// length-prefixing so distinct part boundaries produce distinct inputs.
func Hash(parts ...[]byte) [32]byte {
	// Most inputs — a key, a digest and a signature; a handful of short
	// strings — encode into a stack buffer and hash without allocating.
	var stack [256]byte
	buf := stack[:0]
	for _, p := range parts {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return sha256.Sum256(buf)
}

// HashStrings is Hash over string parts: the same bytes in the same
// stack buffer, so the same digest, without converting each part to a
// []byte. It repeats Hash's loop rather than sharing a generic one,
// which the compiler would inline into callers and make their
// arguments escape.
func HashStrings(parts ...string) [32]byte {
	var stack [256]byte
	buf := stack[:0]
	for _, p := range parts {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return sha256.Sum256(buf)
}

// voteMessage is the canonical encoding of a commit vote on deal d by
// voter v: a digest callers keep on the stack and sign or verify as a
// slice. The deal identifier acts as a nonce (§5: "Since D is
// effectively a nonce, nothing extra is needed to guard against replay
// attacks").
func voteMessage(deal, voter string) [32]byte {
	return HashStrings("xdeal/vote", deal, voter)
}

// PathSig is a commit vote together with its forwarding chain.
//
// Signers[0] is the voter; Signers[i] for i > 0 forwarded the vote.
// Sigs[0] signs the vote message; Sigs[i] signs Sigs[i-1].
type PathSig struct {
	Deal    string
	Voter   string
	Signers []string
	Sigs    [][]byte
}

// NewVote creates a direct (path length 1) commit vote by voter on deal.
func NewVote(deal, voter string, key KeyPair) PathSig {
	return NewVoteWith(nil, deal, voter, key)
}

// NewVoteWith is NewVote with the signature made through memo (nil
// signs plainly).
func NewVoteWith(memo *Memo, deal, voter string, key KeyPair) PathSig {
	msg := voteMessage(deal, voter)
	return PathSig{
		Deal:    deal,
		Voter:   voter,
		Signers: []string{voter},
		Sigs:    [][]byte{memo.Sign(key, msg[:])},
	}
}

// Forward returns a copy of the vote extended with forwarder's signature.
// The receiver is not modified.
func (p PathSig) Forward(forwarder string, key KeyPair) PathSig {
	return p.ForwardWith(nil, forwarder, key)
}

// ForwardWith is Forward with the signature made through memo (nil
// signs plainly).
func (p PathSig) ForwardWith(memo *Memo, forwarder string, key KeyPair) PathSig {
	signers := make([]string, len(p.Signers)+1)
	copy(signers, p.Signers)
	signers[len(p.Signers)] = forwarder

	sigs := make([][]byte, len(p.Sigs)+1)
	copy(sigs, p.Sigs)
	sigs[len(p.Sigs)] = memo.Sign(key, p.Sigs[len(p.Sigs)-1])

	return PathSig{Deal: p.Deal, Voter: p.Voter, Signers: signers, Sigs: sigs}
}

// Len returns the path length |p| (number of signatures).
func (p PathSig) Len() int { return len(p.Signers) }

// Errors returned by Verify.
var (
	ErrEmptyPath        = errors.New("sig: empty signature path")
	ErrMalformedPath    = errors.New("sig: signer and signature counts differ")
	ErrVoterMismatch    = errors.New("sig: first signer is not the voter")
	ErrDuplicateSigner  = errors.New("sig: duplicate signer in path")
	ErrUnknownSigner    = errors.New("sig: signer has no registered public key")
	ErrInvalidSignature = errors.New("sig: invalid signature in path")
)

// Verify checks the full signature chain: the voter's signature over the
// vote message and each forwarder's signature over the preceding
// signature. keys maps party identity to public key; a missing entry
// fails verification. verifications, when non-nil, is incremented once
// per signature verification performed, letting callers meter gas the way
// §7.1 counts cost.
func (p PathSig) Verify(keys map[string]ed25519.PublicKey, verifications *int) error {
	return p.VerifyWith(nil, keys, verifications)
}

// VerifyWith is Verify with each signature checked through memo (nil
// verifies plainly). verifications counts every check the contract asked
// for, memoised or not.
func (p PathSig) VerifyWith(memo *Memo, keys map[string]ed25519.PublicKey, verifications *int) error {
	if len(p.Signers) == 0 {
		return ErrEmptyPath
	}
	if len(p.Signers) != len(p.Sigs) {
		return ErrMalformedPath
	}
	if p.Signers[0] != p.Voter {
		return ErrVoterMismatch
	}
	seen := make(map[string]bool, len(p.Signers))
	for _, s := range p.Signers {
		if seen[s] {
			return fmt.Errorf("%w: %s", ErrDuplicateSigner, s)
		}
		seen[s] = true
	}
	vote := voteMessage(p.Deal, p.Voter)
	msg := vote[:]
	for i, signer := range p.Signers {
		pub, ok := keys[signer]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownSigner, signer)
		}
		if verifications != nil {
			*verifications++
		}
		if !memo.Verify(pub, msg, p.Sigs[i]) {
			return fmt.Errorf("%w: position %d (%s)", ErrInvalidSignature, i, signer)
		}
		msg = p.Sigs[i] // next signature covers this one
	}
	return nil
}

// Clone returns a deep copy of the path signature.
func (p PathSig) Clone() PathSig {
	signers := make([]string, len(p.Signers))
	copy(signers, p.Signers)
	sigs := make([][]byte, len(p.Sigs))
	for i, s := range p.Sigs {
		sigs[i] = append([]byte(nil), s...)
	}
	return PathSig{Deal: p.Deal, Voter: p.Voter, Signers: signers, Sigs: sigs}
}

// Contains reports whether party appears anywhere in the signer path.
func (p PathSig) Contains(party string) bool {
	for _, s := range p.Signers {
		if s == party {
			return true
		}
	}
	return false
}
