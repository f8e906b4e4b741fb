package pow

import (
	"fmt"
	"testing"

	"xdeal/internal/sim"
)

func TestChainExtendAndBest(t *testing.T) {
	c := NewChain()
	g := c.Best()
	if g.Height != 0 {
		t.Fatalf("genesis height = %d", g.Height)
	}
	b1 := NewBlock(g, "m1", []string{"e"})
	if err := c.Extend(b1); err != nil {
		t.Fatal(err)
	}
	if c.Best().Hash != b1.Hash {
		t.Fatal("best tip not updated")
	}
}

func TestExtendUnknownParentRejected(t *testing.T) {
	c := NewChain()
	orphan := &Block{Height: 5, PrevHash: [32]byte{9}}
	if err := c.Extend(orphan); err == nil {
		t.Fatal("orphan accepted")
	}
}

func TestLongestChainWinsForkChoice(t *testing.T) {
	c := NewChain()
	g := c.Best()
	a1 := NewBlock(g, "a", nil)
	b1 := NewBlock(g, "b", nil)
	b2 := NewBlock(b1, "b", nil)
	for _, b := range []*Block{a1, b1, b2} {
		if err := c.Extend(b); err != nil {
			t.Fatal(err)
		}
	}
	if c.Best().Hash != b2.Hash {
		t.Fatal("longest fork not chosen")
	}
}

func TestConfirmations(t *testing.T) {
	c := NewChain()
	g := c.Best()
	b1 := NewBlock(g, "m", nil)
	b2 := NewBlock(b1, "m", nil)
	b3 := NewBlock(b2, "m", nil)
	for _, b := range []*Block{b1, b2, b3} {
		if err := c.Extend(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Confirmations(b1.Hash); got != 2 {
		t.Fatalf("confirmations = %d, want 2", got)
	}
	if got := c.Confirmations(b3.Hash); got != 0 {
		t.Fatalf("tip confirmations = %d, want 0", got)
	}
	side := NewBlock(g, "x", nil)
	if err := c.Extend(side); err != nil {
		t.Fatal(err)
	}
	if got := c.Confirmations(side.Hash); got != -1 {
		t.Fatalf("off-chain confirmations = %d, want -1", got)
	}
}

func TestProofValidation(t *testing.T) {
	g := NewBlock(nil, "g", nil)
	d := NewBlock(g, "m", []string{"decisive"})
	c1 := NewBlock(d, "m", nil)
	c2 := NewBlock(c1, "m", nil)
	p := Proof{Decisive: d, Confirmations: []*Block{c1, c2}}
	if err := p.Valid(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Valid(3); err == nil {
		t.Fatal("accepted with too few confirmations")
	}
	// Unlinked confirmation.
	bad := Proof{Decisive: d, Confirmations: []*Block{c2}}
	if err := bad.Valid(1); err == nil {
		t.Fatal("unlinked confirmation accepted")
	}
	if err := (Proof{}).Valid(0); err == nil {
		t.Fatal("empty proof accepted")
	}
}

func TestAttackSuccessDecreasesWithConfirmations(t *testing.T) {
	const trials = 4000
	alpha := 0.3
	prev := 1.1
	for _, k := range []int{0, 2, 4, 8} {
		p := SuccessProbability(42, RaceParams{Alpha: alpha, VoteBlocks: 3, Confirmations: k}, trials)
		if p > prev+0.02 { // small tolerance for Monte Carlo noise
			t.Fatalf("success at k=%d is %.3f, exceeds previous %.3f", k, p, prev)
		}
		prev = p
	}
	// The race's finish lines are k+1 (attacker) vs V+k (honest), so the
	// decay is governed by a binomial tail: slow but relentless. At k=20
	// and α=0.3 the attacker must win 21 of the first ~43 discoveries.
	deep := SuccessProbability(42, RaceParams{Alpha: alpha, VoteBlocks: 3, Confirmations: 20}, trials)
	if deep > 0.02 {
		t.Fatalf("success with 20 confirmations = %.3f, want < 0.02", deep)
	}
}

func TestAttackSuccessIncreasesWithHashPower(t *testing.T) {
	const trials = 4000
	weak := SuccessProbability(7, RaceParams{Alpha: 0.1, VoteBlocks: 3, Confirmations: 4}, trials)
	strong := SuccessProbability(7, RaceParams{Alpha: 0.45, VoteBlocks: 3, Confirmations: 4}, trials)
	if strong <= weak {
		t.Fatalf("success: alpha=0.45 gives %.3f, alpha=0.1 gives %.3f; want increasing", strong, weak)
	}
	if strong < 0.3 {
		t.Fatalf("near-majority attacker succeeds only %.3f of the time; race model suspect", strong)
	}
}

func TestZeroConfirmationsTrivialAttack(t *testing.T) {
	// With no confirmations required, the attacker needs a single private
	// block before the honest chain finishes recording votes: succeeds
	// often even with modest hash power.
	p := SuccessProbability(3, RaceParams{Alpha: 0.25, VoteBlocks: 4, Confirmations: 0}, 4000)
	if p < 0.4 {
		t.Fatalf("0-conf attack success = %.3f, expected substantial", p)
	}
}

func TestRequiredConfirmationsScalesWithRisk(t *testing.T) {
	// Lower acceptable risk (≈ higher deal value) demands more
	// confirmations — §6.2's prescription.
	kLoose, pLoose := RequiredConfirmations(99, 0.3, 3, 0.10, 3000, 40)
	kTight, pTight := RequiredConfirmations(99, 0.3, 3, 0.01, 3000, 40)
	if kTight < kLoose {
		t.Fatalf("tighter risk requires fewer confirmations: %d < %d", kTight, kLoose)
	}
	if pLoose > 0.10 || pTight > 0.01 {
		t.Fatalf("returned probabilities exceed targets: %.3f, %.3f", pLoose, pTight)
	}
}

func TestRequiredConfirmationsCapped(t *testing.T) {
	// α very close to 1/2 may not reach the risk target within maxK; the
	// search must terminate and report the residual risk.
	k, p := RequiredConfirmations(1, 0.49, 3, 0.0001, 500, 5)
	if k != 5 {
		t.Fatalf("k = %d, want capped at 5", k)
	}
	if p <= 0.0001 {
		t.Fatalf("p = %v, expected residual risk above target", p)
	}
}

func TestAttackScenarioProducesContradictoryProofs(t *testing.T) {
	// Force success with overwhelming adversary hash power; both proofs
	// must be structurally valid — the contract cannot tell them apart.
	rng := sim.NewRNG(5)
	params := RaceParams{Alpha: 0.95, VoteBlocks: 2, Confirmations: 3}
	var res AttackResult
	for i := 0; i < 50; i++ {
		res = RunAttackScenario(rng, params)
		if res.Succeeded {
			break
		}
	}
	if !res.Succeeded {
		t.Fatal("95% hash power attacker never succeeded in 50 runs")
	}
	if err := res.CommitProof.Valid(3); err != nil {
		t.Fatalf("commit proof invalid: %v", err)
	}
	if err := res.AbortProof.Valid(3); err != nil {
		t.Fatalf("fake abort proof invalid: %v (the attack's whole point)", err)
	}
	// The proofs genuinely contradict: different decisive blocks.
	if res.CommitProof.Decisive.Hash == res.AbortProof.Decisive.Hash {
		t.Fatal("proofs do not conflict")
	}
}

func TestAttackScenarioFailureOmitsAbortProof(t *testing.T) {
	rng := sim.NewRNG(6)
	params := RaceParams{Alpha: 0.01, VoteBlocks: 2, Confirmations: 6}
	res := RunAttackScenario(rng, params)
	if res.Succeeded {
		t.Skip("1% attacker got extraordinarily lucky")
	}
	if res.AbortProof.Decisive != nil {
		t.Fatal("failed attack produced an abort proof")
	}
	if err := res.CommitProof.Valid(6); err != nil {
		t.Fatalf("legitimate commit proof invalid: %v", err)
	}
}

// Confirmations returns how many blocks on the best chain are descendants
// of the block with the given hash (0 if it is the tip, -1 if not on the
// best chain).
func (c *Chain) Confirmations(h [32]byte) int {
	b := c.Best()
	depth := 0
	for b != nil {
		if b.Hash == h {
			return depth
		}
		b = c.all[b.PrevHash]
		depth++
	}
	return -1
}

// AttackScenario reproduces the §6.2 narrative concretely on chain
// structures: Alice mines a private fork with her abort vote while the
// public chain commits. It returns the two contradictory proofs when the
// attack succeeds (attack=true), demonstrating that a PoW proof can be
// contradicted by a later proof — the reason the paper prefers BFT
// certificates.
type AttackResult struct {
	Succeeded   bool
	CommitProof Proof // legitimate, from the public chain
	AbortProof  Proof // fake, from the private fork (zero if failed)
}

// RunAttackScenario simulates the race and, on success, materializes the
// private fork so callers can hand both proofs to verification code.
func RunAttackScenario(rng *sim.RNG, p RaceParams) AttackResult {
	c := NewChain()
	genesis := c.Best()

	// Public chain: vote blocks then confirmations.
	public := genesis
	var decisive *Block
	for i := 0; i < p.VoteBlocks; i++ {
		entries := []string{fmt.Sprintf("commit-vote-%d", i)}
		public = NewBlock(public, "honest", entries)
		if err := c.Extend(public); err != nil {
			panic(err)
		}
	}
	decisive = public
	var confs []*Block
	for i := 0; i < p.Confirmations; i++ {
		public = NewBlock(public, "honest", nil)
		if err := c.Extend(public); err != nil {
			panic(err)
		}
		confs = append(confs, public)
	}
	commitProof := Proof{Decisive: decisive, Confirmations: confs}

	if !RunRace(rng, p) {
		return AttackResult{Succeeded: false, CommitProof: commitProof}
	}

	// Alice's private fork from genesis: her abort block + confirmations.
	private := NewBlock(genesis, "alice", []string{"abort-vote-alice"})
	abortDecisive := private
	var abortConfs []*Block
	for i := 0; i < p.Confirmations; i++ {
		private = NewBlock(private, "alice", nil)
		abortConfs = append(abortConfs, private)
	}
	return AttackResult{
		Succeeded:   true,
		CommitProof: commitProof,
		AbortProof:  Proof{Decisive: abortDecisive, Confirmations: abortConfs},
	}
}
