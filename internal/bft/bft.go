// Package bft provides the Byzantine-fault-tolerant certificate machinery
// the certified blockchain (CBC) protocol relies on (§6.2): validator
// committees of 3f+1 members of which at most f deviate, quorum
// certificates carrying at least 2f+1 validator signatures over a
// statement, and reconfiguration chains that let a contract verify
// certificates issued by committees elected after the one it was told
// about at escrow time.
//
// The paper deliberately abstracts away how validators reach consensus
// ("the details of how validators reach consensus on new blocks are not
// important here"); this package implements exactly the artifact contracts
// consume — certificates — plus the signing side used by the simulated
// CBC service.
package bft

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"xdeal/internal/sig"
)

// Member is a validator's public identity.
type Member struct {
	ID     string
	Public ed25519.PublicKey
}

// Committee is a validator set for one epoch, tolerating F Byzantine
// members out of len(Members) = 3F+1.
type Committee struct {
	Epoch   int
	F       int
	Members []Member
}

// Quorum returns the number of signatures a certificate needs: 2f+1.
func (c Committee) Quorum() int { return 2*c.F + 1 }

// Size returns the committee size.
func (c Committee) Size() int { return len(c.Members) }

// Key returns the public key of a member, if present.
func (c Committee) Key(id string) (ed25519.PublicKey, bool) {
	for _, m := range c.Members {
		if m.ID == id {
			return m.Public, true
		}
	}
	return nil, false
}

// Equal reports whether two committees are the same validator set:
// epoch, F, and every member's id and key, in order — exactly when their
// encodings are equal.
func (c Committee) Equal(o Committee) bool {
	if c.Epoch != o.Epoch || c.F != o.F || len(c.Members) != len(o.Members) {
		return false
	}
	for i, m := range c.Members {
		if m.ID != o.Members[i].ID || !bytes.Equal(m.Public, o.Members[i].Public) {
			return false
		}
	}
	return true
}

// Encode serializes the committee deterministically, for signing in
// reconfiguration certificates.
func (c Committee) Encode() []byte {
	var buf []byte
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(c.Epoch))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(c.F))
	buf = append(buf, tmp[:]...)
	for _, m := range c.Members {
		binary.BigEndian.PutUint64(tmp[:], uint64(len(m.ID)))
		buf = append(buf, tmp[:]...)
		buf = append(buf, m.ID...)
		buf = append(buf, m.Public...)
	}
	return buf
}

// Signer is a validator that can sign statements.
type Signer struct {
	Member
	key sig.KeyPair
}

// NewSigner derives a validator deterministically from an id.
func NewSigner(id string) Signer {
	kp := sig.GenerateKeyPair("validator/" + id)
	return Signer{Member: Member{ID: id, Public: kp.Public}, key: kp}
}

// Sign signs a statement.
func (s Signer) Sign(statement []byte) []byte { return s.key.Sign(statement) }

// NewCommittee builds a committee of 3f+1 fresh signers for an epoch,
// with deterministic ids derived from the tag. It returns the committee
// and its signers (the simulation's "validator machines").
func NewCommittee(tag string, epoch, f int) (Committee, []Signer) {
	n := 3*f + 1
	signers := make([]Signer, n)
	members := make([]Member, n)
	for i := 0; i < n; i++ {
		s := NewSigner(fmt.Sprintf("%s/e%d/v%d", tag, epoch, i))
		signers[i] = s
		members[i] = s.Member
	}
	return Committee{Epoch: epoch, F: f, Members: members}, signers
}

// Signature is one validator's signature within a certificate.
type Signature struct {
	Validator string
	Sig       []byte
}

// Certificate vouches for a statement with a quorum of validator
// signatures from one epoch.
type Certificate struct {
	Epoch     int
	Statement []byte
	Sigs      []Signature
}

// MakeCertificate signs the statement with the given signers. It does not
// check quorum: attacks deliberately construct under-quorum certificates.
func MakeCertificate(statement []byte, epoch int, signers []Signer) Certificate {
	return MakeCertificateWith(nil, statement, epoch, signers)
}

// MakeCertificateWith is MakeCertificate with each signature made
// through memo (nil signs plainly).
func MakeCertificateWith(memo *sig.Memo, statement []byte, epoch int, signers []Signer) Certificate {
	cert := Certificate{Epoch: epoch, Statement: append([]byte(nil), statement...)}
	for _, s := range signers {
		cert.Sigs = append(cert.Sigs, Signature{Validator: s.ID, Sig: memo.Sign(s.key, statement)})
	}
	return cert
}

// Certificate verification errors.
var (
	ErrWrongEpoch         = errors.New("bft: certificate epoch does not match committee")
	ErrDuplicateValidator = errors.New("bft: duplicate validator in certificate")
	ErrUnknownValidator   = errors.New("bft: signer is not a committee member")
	ErrNoQuorum           = errors.New("bft: fewer than 2f+1 signatures")
	ErrBadSignature       = errors.New("bft: invalid validator signature")
)

// Verify checks the certificate against a committee: correct epoch, no
// duplicate signers, all signers are members, at least 2f+1 signatures,
// every signature valid. verifications, when non-nil, is incremented per
// signature checked so callers can meter gas the way Figure 6 counts it.
func (cert Certificate) Verify(c Committee, verifications *int) error {
	return cert.VerifyWith(nil, c, verifications)
}

// VerifyWith is Verify with each signature checked through memo (nil
// verifies plainly). verifications counts every check asked for,
// memoised or not.
func (cert Certificate) VerifyWith(memo *sig.Memo, c Committee, verifications *int) error {
	if cert.Epoch != c.Epoch {
		return fmt.Errorf("%w: cert=%d committee=%d", ErrWrongEpoch, cert.Epoch, c.Epoch)
	}
	seen := make(map[string]bool, len(cert.Sigs))
	for _, s := range cert.Sigs {
		if seen[s.Validator] {
			return fmt.Errorf("%w: %s", ErrDuplicateValidator, s.Validator)
		}
		seen[s.Validator] = true
		if _, ok := c.Key(s.Validator); !ok {
			return fmt.Errorf("%w: %s", ErrUnknownValidator, s.Validator)
		}
	}
	if len(cert.Sigs) < c.Quorum() {
		return fmt.Errorf("%w: have %d, need %d", ErrNoQuorum, len(cert.Sigs), c.Quorum())
	}
	for _, s := range cert.Sigs {
		pub, _ := c.Key(s.Validator)
		if verifications != nil {
			*verifications++
		}
		if !memo.Verify(pub, cert.Statement, s.Sig) {
			return fmt.Errorf("%w: %s", ErrBadSignature, s.Validator)
		}
	}
	return nil
}

// Reconfig hands authority from one committee to the next: a certificate
// by the previous committee over the encoding of the next one.
type Reconfig struct {
	Next Committee
	Cert Certificate
}

// NewReconfig produces the handover certificate from the previous
// committee's signers (at least a quorum must be supplied for the result
// to verify).
func NewReconfig(next Committee, prevEpoch int, prevSigners []Signer) Reconfig {
	return NewReconfigWith(nil, next, prevEpoch, prevSigners)
}

// NewReconfigWith is NewReconfig with the handover certificate signed
// through memo (nil signs plainly).
func NewReconfigWith(memo *sig.Memo, next Committee, prevEpoch int, prevSigners []Signer) Reconfig {
	return Reconfig{
		Next: next,
		Cert: MakeCertificateWith(memo, next.Encode(), prevEpoch, prevSigners),
	}
}

// Reconfiguration chain errors.
var (
	ErrBrokenChain = errors.New("bft: reconfiguration does not extend previous committee")
)

// VerifyChain walks a reconfiguration chain starting from the initial
// committee (the one escrow contracts were told about) and returns the
// final committee certificates should be checked against. verify checks
// one handover certificate against the committee that issued it — a
// contract passes its metered, memoised chain.Env.VerifyCertificate.
// Each handover costs a quorum of signature verifications, so a chain of
// k reconfigs costs (k+1)(2f+1) verifications in total when the caller
// also verifies one final certificate — the cost §7.1 derives.
func VerifyChain(initial Committee, chain []Reconfig, verify func(Certificate, Committee) error) (Committee, error) {
	cur := initial
	for i, rc := range chain {
		if rc.Next.Epoch != cur.Epoch+1 {
			return Committee{}, fmt.Errorf("%w: step %d has epoch %d after %d",
				ErrBrokenChain, i, rc.Next.Epoch, cur.Epoch)
		}
		if err := verify(rc.Cert, cur); err != nil {
			return Committee{}, fmt.Errorf("reconfig step %d: %w", i, err)
		}
		// The certified statement must be the next committee's encoding.
		if !bytes.Equal(rc.Cert.Statement, rc.Next.Encode()) {
			return Committee{}, fmt.Errorf("%w: step %d statement mismatch", ErrBrokenChain, i)
		}
		cur = rc.Next
	}
	return cur, nil
}
