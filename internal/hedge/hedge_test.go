package hedge

import (
	"errors"
	"testing"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
	"xdeal/internal/escrow"
	"xdeal/internal/feemarket"
	"xdeal/internal/gas"
	"xdeal/internal/sim"
	"xdeal/internal/timelock"
	"xdeal/internal/token"
)

func TestPremiumPricing(t *testing.T) {
	p := Params{}.WithDefaults()
	base := Premium(1000, 0, 4, p) // 1000 × 4Δ × 10bps = 4
	if base != 4 {
		t.Fatalf("calm premium = %d, want 4", base)
	}
	// Volatility makes insurance expensive: 0.125 realized churn adds
	// 250 bps to the 10 bps floor.
	hot := Premium(1000, 0.125, 4, p) // 1000 × 4 × 260bps = 104
	if hot != 104 {
		t.Fatalf("congested premium = %d, want 104", hot)
	}
	if hot <= base {
		t.Fatal("volatility did not raise the premium")
	}
	// Depth scales the price: a deeper timelock holds capital longer.
	if deep := Premium(1000, 0.125, 8, p); deep != 2*hot {
		t.Fatalf("doubling depth priced %d, want %d", deep, 2*hot)
	}
	// Never free, clamped sane on degenerate inputs.
	if got := Premium(1, 0, 1, p); got != 1 {
		t.Fatalf("minimum premium = %d, want 1", got)
	}
	if got := Premium(1000, -3, 0, p); got != Premium(1000, 0, 1, p) {
		t.Fatalf("degenerate inputs priced %d, want the clamped quote", got)
	}
	if got := Premium(0, 0.5, 4, p); got != 0 {
		t.Fatalf("zero collateral priced %d, want 0", got)
	}
}

// hedgeWorld wires a chain carrying a fungible token, a timelock escrow
// manager, and the hedging contract paired with it.
type hedgeWorld struct {
	sched *sim.Scheduler
	c     *chain.Chain
	coin  *token.Fungible
	esc   *timelock.Manager
	hedge *Manager
}

func newHedgeWorld(t *testing.T, params Params, fees *feemarket.Config) *hedgeWorld {
	t.Helper()
	sched := sim.NewScheduler()
	c := chain.New(chain.Config{
		ID:            "chain",
		BlockInterval: 10,
		Delays:        chain.SyncPolicy{Min: 1, Max: 3},
		Schedule:      gas.DefaultSchedule(),
		FeeMarket:     fees,
		MaxBlockTxs:   8,
	}, sched, sim.NewRNG(1))
	w := &hedgeWorld{
		sched: sched,
		c:     c,
		coin:  token.NewFungible("bank"),
		esc:   timelock.New(escrow.NewBook("coin", deal.Fungible)),
	}
	w.hedge = New("esc", params, func() float64 {
		if fm := c.FeeMarket(); fm != nil {
			return fm.Volatility(w.hedge.Params().VolWindow)
		}
		return 0
	})
	c.MustDeploy("coin", w.coin)
	c.MustDeploy("esc", w.esc)
	c.MustDeploy(AddrFor("esc"), w.hedge)
	return w
}

func (w *hedgeWorld) call(t *testing.T, sender chain.Addr, contract chain.Addr, method string, args any) *chain.Receipt {
	t.Helper()
	var rcpt *chain.Receipt
	w.c.Submit(&chain.Tx{Sender: sender, Contract: contract, Method: method, Args: args,
		Label: "test", OnReceipt: func(r *chain.Receipt) { rcpt = r }})
	w.sched.Run()
	if rcpt == nil {
		t.Fatal("transaction produced no receipt")
	}
	return rcpt
}

func (w *hedgeWorld) fund(t *testing.T, p chain.Addr, coins uint64) {
	t.Helper()
	w.call(t, "bank", "coin", token.MethodMint, token.MintArgs{To: p, Amount: coins})
	w.call(t, p, "coin", token.MethodApprove, token.ApproveArgs{Operator: "esc", Allowed: true})
}

var hedgeParties = []chain.Addr{"alice", "bob"}

func (w *hedgeWorld) escrowDeal(t *testing.T, sender chain.Addr, dealID string, amount uint64, info timelock.Info) {
	t.Helper()
	r := w.call(t, sender, "esc", escrow.MethodEscrow, escrow.EscrowArgs{
		Deal: dealID, Parties: hedgeParties, Info: info, Amount: amount,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
}

// TestSoreLoserAbortPaysOut is the core lifecycle: bind, lock, let the
// deal time out past the trigger, claim — the bond pays the victim.
func TestSoreLoserAbortPaysOut(t *testing.T) {
	w := newHedgeWorld(t, Params{}, nil)
	w.fund(t, "alice", 500)
	info := timelock.Info{T0: 500, Delta: 100}

	r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{
		Deal: "D", Collateral: 300, Depth: 3, MinLock: 100,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	bound, ok := r.Result.(BindResult)
	if !ok || bound.Premium == 0 {
		t.Fatalf("bind result = %#v, want a priced premium", r.Result)
	}
	// Claiming before the escrow finalizes must fail retryably.
	w.escrowDeal(t, "alice", "D", 300, info)
	if r := w.call(t, "alice", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "D"}); !errors.Is(r.Err, ErrNotFinalized) {
		t.Fatalf("claim before finalize: err = %v, want ErrNotFinalized", r.Err)
	}

	// Let the deal time out (t0 + 2·Δ) and poke the refund: the deposit
	// was locked far past MinLock when the abort finalized.
	w.sched.RunUntil(800)
	if r := w.call(t, "alice", "esc", timelock.MethodRefund, timelock.RefundArgs{Deal: "D"}); r.Err != nil {
		t.Fatal(r.Err)
	}
	r = w.call(t, "alice", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "D"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	claim, ok := r.Result.(ClaimResult)
	if !ok || !claim.Payout || claim.Amount != 300 {
		t.Fatalf("claim result = %#v, want a 300 payout", r.Result)
	}
	tot := w.hedge.Totals()
	if tot.Payouts != 300 || tot.Premiums != bound.Premium || tot.Refunds != 0 {
		t.Fatalf("pool ledger = %+v, want payout 300 premium %d", tot, bound.Premium)
	}
	// Double settlement is rejected.
	if r := w.call(t, "alice", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "D"}); !errors.Is(r.Err, ErrAlreadySettled) {
		t.Fatalf("second claim err = %v, want ErrAlreadySettled", r.Err)
	}
}

// TestCommitRefundsPremiumMinusFee: a committed deal consumes no cover;
// the premium returns minus the pool's retention.
func TestCommitRefundsPremiumMinusFee(t *testing.T) {
	w := newHedgeWorld(t, Params{RefundFeeBps: 2000}, nil)
	w.fund(t, "alice", 500)
	w.fund(t, "bob", 500)
	info := timelock.Info{T0: 2000, Delta: 500}

	r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{
		Deal: "D", Collateral: 400, Depth: 3, MinLock: 500,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	premium := r.Result.(BindResult).Premium
	w.escrowDeal(t, "alice", "D", 400, info)
	w.escrowDeal(t, "bob", "D", 100, info)
	env := w.c.TestEnv("esc")
	if err := w.esc.FinalizeCommit(env, "D"); err != nil {
		t.Fatal(err)
	}
	r = w.call(t, "alice", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "D"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	claim := r.Result.(ClaimResult)
	fee := premium * 2000 / 10000
	if claim.Payout || claim.Amount != premium-fee {
		t.Fatalf("claim = %+v, want refund of %d (premium %d minus %d fee)", claim, premium-fee, premium, fee)
	}
	tot := w.hedge.Totals()
	if tot.Refunds != premium-fee || tot.Retained != fee || tot.Payouts != 0 {
		t.Fatalf("pool ledger = %+v", tot)
	}
}

// TestEarlyAbortRefundsOnly: an abort that finalizes before the deposit
// was locked MinLock long is not a sore-loser case — premium refund,
// no payout.
func TestEarlyAbortRefundsOnly(t *testing.T) {
	w := newHedgeWorld(t, Params{}, nil)
	w.fund(t, "alice", 500)
	info := timelock.Info{T0: 100, Delta: 50}

	r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{
		Deal: "D", Collateral: 300, Depth: 3, MinLock: 100000, // trigger far beyond the deal
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	w.escrowDeal(t, "alice", "D", 300, info)
	w.sched.RunUntil(250)
	if r := w.call(t, "alice", "esc", timelock.MethodRefund, timelock.RefundArgs{Deal: "D"}); r.Err != nil {
		t.Fatal(r.Err)
	}
	r = w.call(t, "alice", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "D"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if claim := r.Result.(ClaimResult); claim.Payout {
		t.Fatalf("early abort paid out: %+v", claim)
	}
}

// TestAbortWithoutDepositRefundsOnly: cover bought but nothing ever
// locked — no hostage, no payout.
func TestAbortWithoutDepositRefundsOnly(t *testing.T) {
	w := newHedgeWorld(t, Params{}, nil)
	w.fund(t, "alice", 500)
	w.fund(t, "bob", 500)
	info := timelock.Info{T0: 100, Delta: 50}

	if r := w.call(t, "bob", AddrFor("esc"), MethodBind, BindArgs{
		Deal: "D", Collateral: 300, Depth: 3, MinLock: 1,
	}); r.Err != nil {
		t.Fatal(r.Err)
	}
	// Only alice deposits; bob's cover never attaches to anything.
	w.escrowDeal(t, "alice", "D", 300, info)
	w.sched.RunUntil(300)
	if r := w.call(t, "alice", "esc", timelock.MethodRefund, timelock.RefundArgs{Deal: "D"}); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := w.call(t, "bob", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "D"})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if claim := r.Result.(ClaimResult); claim.Payout {
		t.Fatalf("depositless position paid out: %+v", claim)
	}
}

// TestBindValidation: zero collateral and duplicate positions are
// rejected; unknown claims fail.
func TestBindValidation(t *testing.T) {
	w := newHedgeWorld(t, Params{}, nil)
	if r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{Deal: "D"}); !errors.Is(r.Err, ErrNoCollateral) {
		t.Fatalf("zero-collateral bind err = %v, want ErrNoCollateral", r.Err)
	}
	if r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{Deal: "D", Collateral: 10, Depth: 1}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{Deal: "D", Collateral: 10, Depth: 1}); !errors.Is(r.Err, ErrAlreadyBound) {
		t.Fatalf("duplicate bind err = %v, want ErrAlreadyBound", r.Err)
	}
	// A second party may bind the same deal independently.
	if r := w.call(t, "bob", AddrFor("esc"), MethodBind, BindArgs{Deal: "D", Collateral: 10, Depth: 1}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := w.call(t, "carol", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "D"}); !errors.Is(r.Err, ErrNotBound) {
		t.Fatalf("unbound claim err = %v, want ErrNotBound", r.Err)
	}
	if r := w.call(t, "alice", AddrFor("esc"), MethodClaim, ClaimArgs{Deal: "nope"}); !errors.Is(r.Err, ErrNotBound) {
		t.Fatalf("unknown-deal claim err = %v, want ErrNotBound", r.Err)
	}
}

// TestCongestionRaisesQuotedPremium: the same bind is quoted higher on
// a chain whose base fee has been churning — the ROADMAP's coupling of
// hedge pricing to the fee market's congestion signal.
func TestCongestionRaisesQuotedPremium(t *testing.T) {
	quote := func(churn bool) uint64 {
		w := newHedgeWorld(t, Params{}, &feemarket.Config{Initial: 100})
		fm := w.c.FeeMarket()
		for i := 0; i < 16; i++ {
			if churn {
				fm.Seal(8) // full blocks: the base fee climbs every block
			} else {
				fm.Seal(4) // on target: flat trajectory
			}
		}
		r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{
			Deal: "D", Collateral: 10000, Depth: 5, MinLock: 100,
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r.Result.(BindResult).Premium
	}
	calm, hot := quote(false), quote(true)
	if hot <= calm {
		t.Fatalf("volatile chain quoted %d, calm chain %d — congestion must make insurance expensive", hot, calm)
	}
}

// TestBundleSurchargeStrictlyIncreasing: the bundle-loss surcharge is
// strictly increasing in the realized streak for every collateral size
// — a deal whose bundle lost one more auction always pays strictly
// more for cover — and zero at streak 0 (and in worlds without bundle
// auctions).
func TestBundleSurchargeStrictlyIncreasing(t *testing.T) {
	p := Params{}.WithDefaults()
	for _, collateral := range []uint64{1, 7, 1000, 123456} {
		prev := BundleSurcharge(collateral, 0, p)
		if prev != 0 {
			t.Fatalf("collateral %d: streak-0 surcharge = %d, want 0", collateral, prev)
		}
		for streak := 1; streak <= 12; streak++ {
			got := BundleSurcharge(collateral, streak, p)
			if got <= prev {
				t.Fatalf("collateral %d: surcharge(%d) = %d not strictly above surcharge(%d) = %d",
					collateral, streak, got, streak-1, prev)
			}
			prev = got
		}
	}
	// The default rate: 1% of collateral per consecutive loss.
	if got := BundleSurcharge(1000, 3, p); got != 30 {
		t.Fatalf("surcharge(1000, 3) = %d, want 30", got)
	}
	if BundleSurcharge(0, 5, p) != 0 {
		t.Fatal("zero collateral must carry no surcharge")
	}
}

// TestBindPricesLossStreak: a bind executed while the insured deal's
// bundle-loss streak is n pays Premium + BundleSurcharge(collateral, n)
// exactly, and the result reports the streak and surcharge it priced.
func TestBindPricesLossStreak(t *testing.T) {
	params := Params{}.WithDefaults()
	streak := 0
	w := newHedgeWorld(t, params, nil)
	w.hedge.SetStreakSource(func(deal string) int { return streak })

	quotes := make([]uint64, 4)
	for n := range quotes {
		streak = n
		r := w.call(t, "alice", AddrFor("esc"), MethodBind, BindArgs{
			Deal: "deal-" + string(rune('a'+n)), Collateral: 1000, Depth: 4, MinLock: 10,
		})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		br := r.Result.(BindResult)
		want := Premium(1000, 0, 4, params) + BundleSurcharge(1000, n, params)
		if br.Premium != want {
			t.Fatalf("streak %d priced %d, want %d", n, br.Premium, want)
		}
		if br.Streak != n || br.Surcharge != BundleSurcharge(1000, n, params) {
			t.Fatalf("bind result %+v does not report streak %d and its surcharge", br, n)
		}
		quotes[n] = br.Premium
	}
	for n := 1; n < len(quotes); n++ {
		if quotes[n] <= quotes[n-1] {
			t.Fatalf("premium at streak %d (%d) not strictly above streak %d (%d)",
				n, quotes[n], n-1, quotes[n-1])
		}
	}
}

// Params returns the resolved configuration.
func (m *Manager) Params() Params { return m.params }
