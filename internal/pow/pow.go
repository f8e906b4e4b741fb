// Package pow models the proof-of-work alternative for the certified
// blockchain discussed in §6.2: proofs of commit or abort extracted from
// a Nakamoto-consensus chain, their lack of finality, and the private
// mining attack that lets a deviating party manufacture a contradictory
// "proof of abort".
//
// The attack (§6.2): as soon as the deal starts, Alice privately mines a
// block containing her abort vote. Publicly she votes commit. If, by the
// time the public chain carries the full commit decision plus the
// required confirmations, Alice's private fork has enough blocks (the
// abort block plus the same number of confirmations), she presents the
// fake abort proof to the contracts escrowing her outgoing assets and the
// legitimate commit proof to those escrowing her incoming ones.
//
// The defense is confirmation depth: each extra confirmation forces the
// attacker to win a longer mining race, so the success probability decays
// geometrically — which is why "the number of confirmations required
// should vary depending on the value of the deal".
package pow

import (
	"errors"
	"fmt"

	"xdeal/internal/sig"
	"xdeal/internal/sim"
)

// Block is a proof-of-work block on the simulated chain.
type Block struct {
	Height   int
	PrevHash [32]byte
	Hash     [32]byte
	// Entries carries opaque vote payloads; the deal semantics live in
	// the cbc package, here we only care about chain structure.
	Entries []string
}

// NewBlock links a block onto a parent. The miner's name goes into the
// block's hash, so two miners' blocks over the same entries differ.
func NewBlock(parent *Block, miner string, entries []string) *Block {
	b := &Block{Entries: append([]string(nil), entries...)}
	if parent != nil {
		b.Height = parent.Height + 1
		b.PrevHash = parent.Hash
	}
	var eb []byte
	for _, e := range b.Entries {
		eb = append(eb, e...)
		eb = append(eb, 0)
	}
	b.Hash = sig.Hash(b.PrevHash[:], []byte(miner), eb, []byte{byte(b.Height)})
	return b
}

// Chain is a fork-choice view over PoW blocks: the longest chain wins.
type Chain struct {
	tips map[[32]byte]*Block
	all  map[[32]byte]*Block
}

// NewChain starts a chain from a genesis block.
func NewChain() *Chain {
	g := NewBlock(nil, "genesis", nil)
	c := &Chain{
		tips: map[[32]byte]*Block{g.Hash: g},
		all:  map[[32]byte]*Block{g.Hash: g},
	}
	return c
}

// Extend adds a block; its parent must exist.
func (c *Chain) Extend(b *Block) error {
	if _, ok := c.all[b.PrevHash]; !ok && b.Height != 0 {
		return errors.New("pow: unknown parent")
	}
	c.all[b.Hash] = b
	delete(c.tips, b.PrevHash)
	c.tips[b.Hash] = b
	return nil
}

// Best returns the tip of the longest chain (ties broken by hash for
// determinism).
func (c *Chain) Best() *Block {
	var best *Block
	for _, b := range c.tips {
		if best == nil || b.Height > best.Height ||
			(b.Height == best.Height && lessHash(b.Hash, best.Hash)) {
			best = b
		}
	}
	return best
}

func lessHash(a, b [32]byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Proof is a PoW proof of outcome: the block containing the decisive vote
// plus confirmation headers. Unlike a BFT certificate it is only as final
// as the mining race behind it.
type Proof struct {
	Decisive      *Block
	Confirmations []*Block
}

// Valid reports whether the proof is internally consistent (hash-linked)
// and carries at least k confirmations. A contract can check no more than
// this — it cannot know whether a heavier public chain exists, which is
// precisely the §6.2 weakness.
func (p Proof) Valid(k int) error {
	if p.Decisive == nil {
		return errors.New("pow: missing decisive block")
	}
	if len(p.Confirmations) < k {
		return fmt.Errorf("pow: %d confirmations, need %d", len(p.Confirmations), k)
	}
	prev := p.Decisive
	for i, b := range p.Confirmations {
		if b.PrevHash != prev.Hash || b.Height != prev.Height+1 {
			return fmt.Errorf("pow: confirmation %d not linked", i)
		}
		prev = b
	}
	return nil
}

// RaceParams configures the private-mining race of §6.2.
type RaceParams struct {
	// Alpha is the adversary's fraction of total hash power.
	Alpha float64
	// VoteBlocks is the number of public blocks needed to record the
	// deal's commit votes (the decisive block included).
	VoteBlocks int
	// Confirmations is the depth k that proofs must carry.
	Confirmations int
}

// RunRace simulates one race: block discoveries are Bernoulli trials
// won by the adversary with probability Alpha. The adversary needs
// Confirmations+1 private blocks (her abort block plus k confirmations)
// before the public chain reaches VoteBlocks+Confirmations blocks (the
// decision plus k confirmations); she acts first on ties because she
// chooses when to reveal.
func RunRace(rng *sim.RNG, p RaceParams) bool {
	honestTarget := p.VoteBlocks + p.Confirmations
	attackTarget := p.Confirmations + 1
	honest, attack := 0, 0
	for honest < honestTarget && attack < attackTarget {
		if rng.Float64() < p.Alpha {
			attack++
		} else {
			honest++
		}
	}
	return attack >= attackTarget
}

// SuccessProbability estimates the attack's success rate over trials.
func SuccessProbability(seed uint64, p RaceParams, trials int) float64 {
	rng := sim.NewRNG(seed)
	wins := 0
	for i := 0; i < trials; i++ {
		if RunRace(rng, p) {
			wins++
		}
	}
	return float64(wins) / float64(trials)
}

// RequiredConfirmations returns the smallest confirmation depth k for
// which the estimated attack success probability drops to maxRisk or
// below — the §6.2 prescription that high-value deals demand deeper
// confirmation. Returns k and the estimated probability at that k. The
// search is capped to avoid unbounded loops for α close to 1/2.
func RequiredConfirmations(seed uint64, alpha float64, voteBlocks int, maxRisk float64, trials, maxK int) (int, float64) {
	for k := 0; k <= maxK; k++ {
		p := SuccessProbability(seed, RaceParams{
			Alpha: alpha, VoteBlocks: voteBlocks, Confirmations: k,
		}, trials)
		if p <= maxRisk {
			return k, p
		}
	}
	p := SuccessProbability(seed, RaceParams{
		Alpha: alpha, VoteBlocks: voteBlocks, Confirmations: maxK,
	}, trials)
	return maxK, p
}
