package cbc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/sig"
)

// oracleEncode is the entry encoding block digests hashed before they
// were encoded on the stack: kind, deal, party and plist, each name
// 0-terminated, then the start hash.
func oracleEncode(e Entry) []byte {
	var b []byte
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(e.Kind))
	b = append(b, tmp[:]...)
	b = append(b, e.Deal...)
	b = append(b, 0)
	b = append(b, e.Party...)
	b = append(b, 0)
	b = append(b, oracleAddrs(e.Parties)...)
	b = append(b, e.Hash[:]...)
	return b
}

func oracleAddrs(as []chain.Addr) []byte {
	var b []byte
	for _, a := range as {
		b = append(b, a...)
		b = append(b, 0)
	}
	return b
}

// oracleBlockDigest is sig.Hash over the height, the parent hash and
// each entry's encoding: the composition blockDigest must reproduce.
func oracleBlockDigest(height uint64, prev [32]byte, entries []Entry) [32]byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], height)
	parts := [][]byte{tmp[:], prev[:]}
	for _, e := range entries {
		parts = append(parts, oracleEncode(e))
	}
	return sig.Hash(parts...)
}

// oracleStartHash is the composition StartHash must reproduce.
func oracleStartHash(dealID string, parties []chain.Addr, height uint64, index int) [32]byte {
	var tmp [16]byte
	binary.BigEndian.PutUint64(tmp[:8], height)
	binary.BigEndian.PutUint64(tmp[8:], uint64(index))
	return sig.Hash([]byte("startDeal"), []byte(dealID), oracleAddrs(parties), tmp[:])
}

// manyParties returns n parties with names long enough that a startDeal
// of 40 of them overflows the digest's stack buffer.
func manyParties(n int) []chain.Addr {
	ps := make([]chain.Addr, n)
	for i := range ps {
		ps[i] = chain.Addr(fmt.Sprintf("a-party-with-a-long-name-%02d", i))
	}
	return ps
}

// sevenEntries is a block of seven entries of every kind.
func sevenEntries() []Entry {
	h := sha256.Sum256([]byte("start"))
	six := []chain.Addr{"alice", "bob", "carol", "dave", "erin", "frank"}
	return []Entry{
		{Kind: EntryStartDeal, Deal: "ring-6/ring", Party: "alice", Parties: six},
		{Kind: EntryCommit, Deal: "ring-6/ring", Party: "alice", Hash: h},
		{Kind: EntryCommit, Deal: "ring-6/ring", Party: "bob", Hash: h},
		{Kind: EntryCommit, Deal: "ring-6/ring", Party: "carol", Hash: h},
		{Kind: EntryAbort, Deal: "ring-6/ring", Party: "dave", Hash: h},
		{Kind: EntryStartDeal, Deal: "ring-6/ring", Party: "erin", Parties: six[:3]},
		{Kind: EntryCommit, Deal: "broker/broker", Party: "frank", Hash: h},
	}
}

// TestDigestsMatchEncoding holds blockDigest and StartHash to the
// sig.Hash compositions they replace, on blocks that cover the empty
// block, one vote, seven entries, a startDeal too long for the stack
// buffer and an empty deal id. StartHash is checked at every entry's
// deal, plist and position.
func TestDigestsMatchEncoding(t *testing.T) {
	h := sha256.Sum256([]byte("start"))
	cases := map[string]struct {
		entries  []Entry
		overflow bool // the block's and the startDeal's inputs exceed digestStack
	}{
		"empty block":   {},
		"one vote":      {entries: []Entry{{Kind: EntryCommit, Deal: "D", Party: "alice", Hash: h}}},
		"seven entries": {entries: sevenEntries()},
		"40-party startDeal": {
			entries:  []Entry{{Kind: EntryStartDeal, Deal: "random-40-3/random", Party: "a-party-with-a-long-name-00", Parties: manyParties(40)}},
			overflow: true,
		},
		"empty deal id": {entries: []Entry{
			{Kind: EntryStartDeal, Deal: "", Party: "alice", Parties: parties},
			{Kind: EntryAbort, Deal: "", Party: "bob", Hash: h},
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			if tc.overflow {
				e := tc.entries[0]
				if n := len(e.appendEncoding(nil)); n <= digestStack {
					t.Fatalf("the startDeal encodes into %d bytes, which fits the %d-byte stack buffer", n, digestStack)
				}
			}
			for _, height := range []uint64{0, 1, 1 << 40} {
				prev := sha256.Sum256(binary.BigEndian.AppendUint64(nil, height))
				if got, want := blockDigest(height, prev, tc.entries), oracleBlockDigest(height, prev, tc.entries); got != want {
					t.Errorf("height %d: blockDigest = %x, the sig.Hash composition gives %x", height, got, want)
				}
				for i, e := range tc.entries {
					if got, want := StartHash(e.Deal, e.Parties, height, i), oracleStartHash(e.Deal, e.Parties, height, i); got != want {
						t.Errorf("height %d, entry %d: StartHash = %x, the sig.Hash composition gives %x", height, i, got, want)
					}
				}
			}
		})
	}
}

// FuzzBlockDigestMatchesEncoding holds blockDigest and StartHash to the
// sig.Hash compositions over random entries: n copies of one entry, the
// i-th of kind kind+i with the first i mod (len+1) names of the plist
// (comma-separated in plist).
func FuzzBlockDigestMatchesEncoding(f *testing.F) {
	f.Add(uint64(0), uint8(0), "", "", "", []byte(nil), uint8(0))
	f.Add(uint64(7), uint8(1), "D", "alice", "alice,bob,carol", []byte{1, 2, 3}, uint8(7))
	f.Add(uint64(1<<63), uint8(2), "ring-6/ring", "a\x00b", strings.Repeat("party-name,", 60), []byte("hash"), uint8(3))
	f.Fuzz(func(t *testing.T, height uint64, kind uint8, dealID, party, plist string, hash []byte, n uint8) {
		var names []chain.Addr
		if plist != "" {
			for _, a := range strings.Split(plist, ",") {
				names = append(names, chain.Addr(a))
			}
		}
		entries := make([]Entry, n%16)
		for i := range entries {
			e := &entries[i]
			e.Kind = EntryKind((int(kind) + i) % 4)
			e.Deal, e.Party = dealID, chain.Addr(party)
			e.Parties = names[:i%(len(names)+1)]
			copy(e.Hash[:], hash)
		}
		prev := sha256.Sum256(hash)
		if got, want := blockDigest(height, prev, entries), oracleBlockDigest(height, prev, entries); got != want {
			t.Fatalf("blockDigest = %x, the sig.Hash composition gives %x", got, want)
		}
		if got, want := StartHash(dealID, names, height, int(n)), oracleStartHash(dealID, names, height, int(n)); got != want {
			t.Fatalf("StartHash = %x, the sig.Hash composition gives %x", got, want)
		}
	})
}

var digestSink [32]byte

// TestDigestsAllocateNothing pins the stack encoding: the digest of a
// seven-entry block and the start hash of a six-party plist allocate
// nothing.
func TestDigestsAllocateNothing(t *testing.T) {
	entries := sevenEntries()
	prev := sha256.Sum256([]byte("prev"))
	if n := testing.AllocsPerRun(100, func() { digestSink = blockDigest(9, prev, entries) }); n != 0 {
		t.Errorf("blockDigest of a 7-entry block makes %v allocations, want 0", n)
	}
	six := entries[0].Parties
	if n := testing.AllocsPerRun(100, func() { digestSink = StartHash("ring-6/ring", six, 9, 3) }); n != 0 {
		t.Errorf("StartHash of a 6-party plist makes %v allocations, want 0", n)
	}
}
