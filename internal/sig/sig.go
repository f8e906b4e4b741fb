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
//
// A PathSig is never written after it is built: NewVoteWith and
// ForwardWith return a fresh path, and everything else only reads one.
// A vote is therefore shared by value, without a copy, by the
// transaction that carries it, the event that reports its acceptance
// and every party that holds or forwards it.
//
// Signatures come in two schemes. The plain forms (KeyPair.Sign, Verify,
// PathSig.Forward and Verify, and a nil *Memo) run ed25519. A simulated
// world signs and verifies through its own non-nil Memo instead, whose
// signatures are facts only this package can make (see Memo): no claim
// of the paper rests on the curve, only on signatures being unforgeable.
package sig

import (
	"bytes"
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

// keyTableCap bounds the key-pair table, about 4 MB at most: a stream of
// fresh identities must not grow the process. It is sized to the working
// set. Five arena-congested-shaped sweeps of 2,000 deals each (seeds 7 to
// 11), run one after another in one process with an unbounded table, met
// 2,764, 1,112, 564, 464 and 264 new key seeds, 5,168 in all, so a cap of
// 4,096 overflowed during the third sweep and every later miss derived
// its key on the curve again. The three isolated benchmark workloads,
// run one after another in one process, met 707 in all.
const keyTableCap = 16384

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

// Memo is one world's signature scheme. Under a non-nil memo a
// signature is a fact rather than an ed25519 signature: 64 bytes, the
// signer's public key followed by the SHA-256 of a package-private key,
// the public key and the message (see factDigest). Only this package can
// compute that digest, and it computes one only for a caller holding the
// private key, so outside sig a fact can be copied and replayed but never
// made — the unforgeable signatures the paper's model (§3) assumes, read
// the Dolev–Yao way, at the cost of one SHA-256 instead of curve
// arithmetic. A fact verifies only through a memo and an ed25519
// signature only without one, so every signer and verifier of one world
// must share its memo.
//
// The memo also remembers the facts it has accepted, so its counters can
// score the checks that repeat one within the world: the same 2f+1
// certificate at every escrow of a deal, the prefix p of a path signature
// p·q at every hop. A rejected fact is never remembered. It is safe for
// concurrent use, and a nil *Memo signs and verifies with ed25519.
type Memo struct {
	mu            sync.Mutex
	accepted      map[[32]byte]struct{}
	verifications uint64
	hits          uint64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	m := &Memo{accepted: make(map[[32]byte]struct{})}
	m.Reset()
	return m
}

// Reset empties the memo, as NewMemo builds it, keeping the storage of
// its accepted set: no fact accepted and no check counted before the
// reset is remembered after it. A nil memo stays nil.
func (m *Memo) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.accepted)
	m.verifications, m.hits = 0, 0
}

// factKey is the package-private key every fact digest is taken under.
// It is a constant so that runs repeat bit for bit; what keeps facts
// unforgeable is that no code outside sig takes a digest under it.
var factKey = []byte("xdeal/sig/fact")

// factDigest is the second half of the fact that pub's key pair makes
// for msg.
func factDigest(pub, msg []byte) [32]byte { return Hash(factKey, pub, msg) }

// Verify reports whether sig is a fact of msg under pub: its first half
// is pub and its second half is their digest.
func (m *Memo) Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if m == nil {
		return Verify(pub, msg, sig)
	}
	valid := len(sig) == ed25519.SignatureSize && bytes.Equal(sig[:ed25519.PublicKeySize], pub)
	var d [32]byte
	if valid {
		d = factDigest(pub, msg)
		valid = bytes.Equal(sig[ed25519.PublicKeySize:], d[:])
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verifications++
	if !valid {
		return false
	}
	if _, hit := m.accepted[d]; hit {
		m.hits++
	} else {
		m.accepted[d] = struct{}{}
	}
	return true
}

// Stats returns how many verifications were asked of the memo and how
// many of them repeated a fact the memo had already accepted.
func (m *Memo) Stats() (verifications, hits uint64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verifications, m.hits
}

// Sign returns key's fact of msg, or key.Sign(msg) under a nil memo. The
// fact names the public half of key's private key, not key.Public, which
// a caller may have reassigned. Every call returns a fresh slice the
// caller may modify.
func (m *Memo) Sign(key KeyPair, msg []byte) []byte {
	if m == nil {
		return key.Sign(msg)
	}
	var s [ed25519.SignatureSize]byte
	m.signInto(&s, key, msg)
	return s[:]
}

// signInto writes what Sign returns into dst, without allocating under a
// non-nil memo.
func (m *Memo) signInto(dst *[ed25519.SignatureSize]byte, key KeyPair, msg []byte) {
	if m == nil {
		copy(dst[:], key.Sign(msg))
		return
	}
	pub := key.private[ed25519.SeedSize:]
	d := factDigest(pub, msg)
	copy(dst[:], pub)
	copy(dst[ed25519.PublicKeySize:], d[:])
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
// Hops[0] is the voter's signature over the vote message; each later hop
// is a forwarder's signature over the hop before it. A PathSig is never
// written after it is built (see the package doc).
type PathSig struct {
	Deal  string
	Voter string
	Hops  []Hop
}

// Hop is one signature of a path: ed25519 signatures and memo facts are
// both ed25519.SignatureSize bytes.
type Hop struct {
	Signer string
	Sig    [ed25519.SignatureSize]byte
}

// NewVote creates a direct (path length 1) commit vote by voter on deal.
func NewVote(deal, voter string, key KeyPair) PathSig {
	return NewVoteWith(nil, deal, voter, key)
}

// NewVoteWith is NewVote with the signature made through memo (nil
// signs plainly).
func NewVoteWith(memo *Memo, deal, voter string, key KeyPair) PathSig {
	msg := voteMessage(deal, voter)
	hops := []Hop{{Signer: voter}}
	memo.signInto(&hops[0].Sig, key, msg[:])
	return PathSig{Deal: deal, Voter: voter, Hops: hops}
}

// Forward returns a copy of the vote extended with forwarder's signature.
// The receiver is not modified.
func (p PathSig) Forward(forwarder string, key KeyPair) PathSig {
	return p.ForwardWith(nil, forwarder, key)
}

// ForwardWith is Forward with the signature made through memo (nil
// signs plainly). The result's hops are a new slice: it shares no
// writable storage with the receiver.
func (p PathSig) ForwardWith(memo *Memo, forwarder string, key KeyPair) PathSig {
	n := len(p.Hops)
	hops := make([]Hop, n+1)
	copy(hops, p.Hops)
	hops[n].Signer = forwarder
	memo.signInto(&hops[n].Sig, key, p.Hops[n-1].Sig[:])
	return PathSig{Deal: p.Deal, Voter: p.Voter, Hops: hops}
}

// Len returns the path length |p| (number of signatures).
func (p PathSig) Len() int { return len(p.Hops) }

// Errors returned by Verify.
var (
	ErrEmptyPath        = errors.New("sig: empty signature path")
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
	if len(p.Hops) == 0 {
		return ErrEmptyPath
	}
	if p.Hops[0].Signer != p.Voter {
		return ErrVoterMismatch
	}
	seen := make(map[string]bool, len(p.Hops))
	for i := range p.Hops {
		s := p.Hops[i].Signer
		if seen[s] {
			return fmt.Errorf("%w: %s", ErrDuplicateSigner, s)
		}
		seen[s] = true
	}
	vote := voteMessage(p.Deal, p.Voter)
	msg := vote[:]
	for i := range p.Hops {
		h := &p.Hops[i]
		pub, ok := keys[h.Signer]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownSigner, h.Signer)
		}
		if verifications != nil {
			*verifications++
		}
		if !memo.Verify(pub, msg, h.Sig[:]) {
			return fmt.Errorf("%w: position %d (%s)", ErrInvalidSignature, i, h.Signer)
		}
		msg = h.Sig[:] // next signature covers this one
	}
	return nil
}

// Contains reports whether party appears anywhere in the signer path.
func (p PathSig) Contains(party string) bool {
	for i := range p.Hops {
		if p.Hops[i].Signer == party {
			return true
		}
	}
	return false
}
