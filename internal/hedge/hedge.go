// Package hedge implements premium-priced sore-loser insurance in the
// spirit of Xue & Herlihy ("Hedging Against Sore Loser Attacks in
// Cross-Chain Transactions"): an on-chain hedging contract layered on
// the escrow manager, under which a deposit that ends up timelocked for
// nothing — the deal aborted after the victim's capital had been locked
// past the sore-loser trigger — pays the victim a collateral bond,
// funded by the insurance pool and bought with an upfront premium.
//
// The lifecycle per insured deposit is:
//
//	bind:  before locking anything, the insured pays a premium and the
//	       pool reserves a collateral bond against its upcoming deposit
//	       at the paired escrow contract;
//	claim: once the escrow finalizes, the insured settles. An abort
//	       that finalized at least MinLock after the deposit first
//	       locked pays out the bond (the sore-loser case: capital held
//	       hostage through the timelock window); a commit, an abort
//	       before the trigger, or an abort with nothing deposited
//	       refunds the premium minus a retention fee.
//
// The premium is priced deterministically from the hosting chain's
// realized base-fee volatility (see feemarket.Volatility) and the
// deal's timelock depth: premium = collateral × (base + weight·vol) ×
// depth, in basis points. A congested chain — one whose base fee is
// churning — is a chain where timelocked capital is exposed, so
// insurance there costs more; and a deeper timelock window holds the
// bond (and the hostage capital) longer, so depth scales the price too.
//
// Like the fee market's ledger, premium and payout flows are
// accounting, not token transfers: parties' on-chain balances are deal
// assets whose conservation the engine's Property 1–3 checks assert, so
// hedge flows live in the contract's own ledger and reports net them
// against sore-loser losses instead of mutating token balances.
//
// Everything is integer arithmetic over explicitly ordered state, so a
// hedged world remains a pure function of its seed.
package hedge

import (
	"errors"
	"fmt"

	"xdeal/internal/chain"
	"xdeal/internal/escrow"
	"xdeal/internal/sim"
)

// Contract methods.
const (
	MethodBind     = "hedge-bind"     // buy cover before locking a deposit
	MethodClaim    = "hedge-claim"    // settle after the escrow finalizes
	MethodPosition = "hedge-position" // read-only position query
)

// Event kinds.
const (
	EventBound   = "hedge-bound"
	EventSettled = "hedge-settled"
)

// Errors returned by the hedging contract.
var (
	ErrNoCollateral   = errors.New("hedge: collateral must be positive")
	ErrAlreadyBound   = errors.New("hedge: position already bound for this deal and party")
	ErrNotBound       = errors.New("hedge: no position for this deal and party")
	ErrAlreadySettled = errors.New("hedge: position already settled")
	ErrNotFinalized   = errors.New("hedge: escrow not finalized yet")
)

// Defaults of the two Params fields that sweeps also expose.
const (
	// DefaultCollateral is the bond size as a multiple of the insured
	// deposit: the bond fully replaces a stranded deposit.
	DefaultCollateral = 1.0
	// DefaultVolWindow is the realized base-fee volatility window, in
	// sealed blocks.
	DefaultVolWindow = 32
)

// Params configures the hedging subsystem. The zero value of each field
// resolves to the documented default.
type Params struct {
	// Collateral is the bond size as a multiple of the insured deposit
	// (default DefaultCollateral).
	Collateral float64
	// VolWindow is the realized base-fee volatility window, in sealed
	// blocks (default DefaultVolWindow).
	VolWindow int
	// TriggerDeltas is the sore-loser trigger: an abort pays out only
	// when the deposit had been locked at least this many Δ when the
	// escrow finalized (default 1). Quick mutual aborts stay cheap;
	// capital held hostage through the timelock window is compensated.
	TriggerDeltas int
	// BaseRateBps is the premium rate floor, in basis points of
	// collateral per Δ of timelock depth (default 10 = 0.10%/Δ).
	BaseRateBps uint64
	// VolWeightBps scales realized volatility into the premium rate, in
	// basis points of rate per unit of volatility (default 2000: a
	// chain at the ±1/8 EIP-1559 churn limit adds 2.5%/Δ).
	VolWeightBps uint64
	// RefundFeeBps is the pool's retention on refunded premiums, in
	// basis points (default 1000 = 10%).
	RefundFeeBps uint64
	// StreakRateBps scales the bundle-loss surcharge, in basis points
	// of collateral per consecutive auction the insured deal's bundle
	// has lost on the hosting chain at bind time (default 100 = 1%
	// per loss, each step at least 1 so the surcharge is strictly
	// increasing in the streak). A bundle that keeps losing the
	// block-space auction is a timelock at risk: its deposit is headed
	// for exactly the stranding the cover pays out on, so realized
	// exclusion prices the insurance up. Zero streaks (and worlds
	// without bundle auctions) pay no surcharge.
	StreakRateBps uint64
}

// WithDefaults resolves zero fields. Non-positive values resolve to
// the defaults too: a negative collateral factor would otherwise reach
// a float-to-uint64 conversion whose out-of-range result is
// implementation-defined — a cross-platform determinism hazard.
func (p Params) WithDefaults() Params {
	if p.Collateral <= 0 {
		p.Collateral = DefaultCollateral
	}
	if p.VolWindow <= 0 {
		p.VolWindow = DefaultVolWindow
	}
	if p.TriggerDeltas <= 0 {
		p.TriggerDeltas = 1
	}
	if p.BaseRateBps == 0 {
		p.BaseRateBps = 10
	}
	if p.VolWeightBps == 0 {
		p.VolWeightBps = 2000
	}
	if p.RefundFeeBps == 0 {
		p.RefundFeeBps = 1000
	}
	if p.StreakRateBps == 0 {
		p.StreakRateBps = 100
	}
	return p
}

// Premium prices sore-loser cover: collateral × (BaseRateBps +
// VolWeightBps·vol) × depth / 10000, never free (minimum 1). vol is the
// chain's realized base-fee volatility (a fraction, e.g. 0.125 at the
// EIP-1559 churn limit); depth is the deal's timelock horizon in Δ
// units. Pure, so parties and tests can price a quote offline.
func Premium(collateral uint64, vol float64, depth int, p Params) uint64 {
	p = p.WithDefaults()
	if collateral == 0 {
		return 0
	}
	if depth < 1 {
		depth = 1
	}
	if vol < 0 {
		vol = 0
	}
	rateBps := p.BaseRateBps + uint64(vol*float64(p.VolWeightBps))
	premium := collateral * uint64(depth) * rateBps / 10000
	if premium < 1 {
		premium = 1
	}
	return premium
}

// BundleSurcharge prices the bundle-loss streak surcharge: streak ×
// max(1, collateral × StreakRateBps / 10000). The per-step floor of 1
// makes the surcharge strictly increasing in the streak for every
// collateral size — a deal whose bundle lost one more auction always
// pays strictly more for cover. Pure, like Premium.
func BundleSurcharge(collateral uint64, streak int, p Params) uint64 {
	if streak <= 0 || collateral == 0 {
		return 0
	}
	p = p.WithDefaults()
	step := collateral * p.StreakRateBps / 10000
	if step < 1 {
		step = 1
	}
	return uint64(streak) * step
}

// AddrFor derives the hedging contract's address from the escrow
// contract it insures deposits at.
func AddrFor(escrowAddr chain.Addr) chain.Addr { return escrowAddr + "~hedge" }

// BindArgs is the argument to MethodBind. The sender is the insured
// party; the position covers its upcoming deposit at the contract's
// paired escrow manager.
type BindArgs struct {
	Deal string
	// Collateral is the bond the pool reserves (the payout on a
	// sore-loser abort).
	Collateral uint64
	// Depth is the deal's timelock horizon in Δ units ((N+1) for an
	// N-party timelock deal); it scales the premium.
	Depth int
	// MinLock is the sore-loser trigger: the payout requires the
	// deposit to have been locked at least this long when the escrow
	// finalized. Parties pass TriggerDeltas × Δ.
	MinLock sim.Duration
}

// BindResult is MethodBind's return value: the premium charged and the
// congestion signals it was priced at.
type BindResult struct {
	Premium uint64
	Vol     float64
	// Streak is the insured deal's realized bundle-loss streak on the
	// hosting chain at bind; Surcharge is the extra premium it cost
	// (zero in worlds without bundle auctions).
	Streak    int
	Surcharge uint64
}

// ClaimArgs is the argument to MethodClaim; the sender settles its own
// position.
type ClaimArgs struct {
	Deal string
}

// ClaimResult is MethodClaim's return value.
type ClaimResult struct {
	// Payout reports a sore-loser payout (Amount is the collateral
	// bond); false means a premium refund minus the retention fee.
	Payout bool
	Amount uint64
}

// BoundEvent reports a bound position.
type BoundEvent struct {
	Deal       string
	Insured    chain.Addr
	Collateral uint64
	Premium    uint64
}

// SettledEvent reports a settled position.
type SettledEvent struct {
	Deal    string
	Insured chain.Addr
	Payout  bool
	Amount  uint64
}

// Position is one insured deposit's state.
type Position struct {
	Insured    chain.Addr
	Collateral uint64
	Premium    uint64
	Vol        float64 // realized volatility the premium was priced at
	MinLock    sim.Duration
	BoundAt    sim.Time
	Settled    bool
	PaidOut    bool
}

// Totals is the contract's pool ledger.
type Totals struct {
	Bound    int    // positions bound
	Settled  int    // positions settled
	Premiums uint64 // premiums charged at bind
	Payouts  uint64 // collateral paid to sore-loser victims
	Refunds  uint64 // premiums returned (net of retention)
	Retained uint64 // retention fees kept by the pool
}

// Manager is the deployable hedging contract paired with one escrow
// manager on the same chain. It prices premiums off the hosting chain's
// realized base-fee volatility via the vol source the deployer wires
// (nil on chains without a fee market: insurance is cheap where nothing
// congests).
type Manager struct {
	// Escrow is the paired escrow manager's address; claims settle
	// against its publicly readable deal state.
	Escrow chain.Addr

	params    Params
	vol       func() float64
	streak    func(deal string) int
	positions map[string]*Position // deal/insured -> position
	totals    Totals
}

// New creates a hedging contract for the escrow manager at escrowAddr.
// vol supplies the chain's realized base-fee volatility at bind time
// (nil prices every premium at the base rate).
func New(escrowAddr chain.Addr, params Params, vol func() float64) *Manager {
	return &Manager{
		Escrow:    escrowAddr,
		params:    params.WithDefaults(),
		vol:       vol,
		positions: make(map[string]*Position),
	}
}

// Params returns the resolved configuration.
func (m *Manager) Params() Params { return m.params }

// SetStreakSource wires the hosting chain's realized bundle-loss
// streak into premium pricing (see chain.BundleLossStreak): a bind for
// a deal whose bundle has lost the last n block-space auctions pays
// BundleSurcharge(collateral, n) on top of the volatility-priced
// premium. Nil (the default) prices every bind at streak 0.
func (m *Manager) SetStreakSource(fn func(deal string) int) { m.streak = fn }

// Totals returns the pool ledger.
func (m *Manager) Totals() Totals { return m.totals }

// Position returns the position for (deal, insured), or nil.
func (m *Manager) Position(dealID string, insured chain.Addr) *Position {
	return m.positions[posKey(dealID, insured)]
}

func posKey(dealID string, insured chain.Addr) string {
	return dealID + "/" + string(insured)
}

// Invoke implements chain.Contract.
func (m *Manager) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodBind:
		a, ok := args.(BindArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return m.handleBind(env, a)
	case MethodClaim:
		a, ok := args.(ClaimArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return m.handleClaim(env, a)
	case MethodPosition:
		a, ok := args.(ClaimArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		if p := m.positions[posKey(a.Deal, env.Sender())]; p != nil {
			return *p, nil
		}
		return Position{}, nil
	default:
		return nil, chain.ErrUnknownMethod
	}
}

// handleBind opens a position: prices the premium off the chain's
// current realized volatility, charges it, and reserves the bond.
func (m *Manager) handleBind(env *chain.Env, a BindArgs) (any, error) {
	if a.Collateral == 0 {
		return nil, ErrNoCollateral
	}
	key := posKey(a.Deal, env.Sender())
	if m.positions[key] != nil {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyBound, key)
	}
	var vol float64
	if m.vol != nil {
		vol = m.vol()
	}
	var streak int
	if m.streak != nil {
		streak = m.streak(a.Deal)
	}
	env.Arith(2) // premium pricing
	surcharge := BundleSurcharge(a.Collateral, streak, m.params)
	premium := Premium(a.Collateral, vol, a.Depth, m.params) + surcharge
	minLock := a.MinLock
	if minLock < 0 {
		minLock = 0
	}
	m.positions[key] = &Position{
		Insured:    env.Sender(),
		Collateral: a.Collateral,
		Premium:    premium,
		Vol:        vol,
		MinLock:    minLock,
		BoundAt:    env.Now(),
	}
	m.totals.Bound++
	m.totals.Premiums += premium
	env.Write(2) // position + pool ledger
	env.Emit(EventBound, BoundEvent{
		Deal: a.Deal, Insured: env.Sender(), Collateral: a.Collateral, Premium: premium,
	})
	return BindResult{Premium: premium, Vol: vol, Streak: streak, Surcharge: surcharge}, nil
}

// handleClaim settles a position against the paired escrow manager's
// finalized deal state.
func (m *Manager) handleClaim(env *chain.Env, a ClaimArgs) (any, error) {
	key := posKey(a.Deal, env.Sender())
	pos := m.positions[key]
	if pos == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotBound, key)
	}
	if pos.Settled {
		return nil, fmt.Errorf("%w: %s", ErrAlreadySettled, key)
	}
	res, err := env.Call(m.Escrow, escrow.MethodStatus, a.Deal)
	if err != nil {
		return nil, err
	}
	view, ok := res.(escrow.View)
	if !ok || !view.Exists() {
		return nil, fmt.Errorf("%w: deal %s unknown at %s", ErrNotFinalized, a.Deal, m.Escrow)
	}
	if view.Status() == escrow.StatusActive {
		return nil, fmt.Errorf("%w: deal %s still active", ErrNotFinalized, a.Deal)
	}
	env.Read(2)
	pos.Settled = true
	m.totals.Settled++
	out := ClaimResult{}
	lockedAt, deposited := view.DepositedAtOf(pos.Insured)
	if view.Status() == escrow.StatusAborted && deposited &&
		view.DepositedOf(pos.Insured) > 0 &&
		view.FinalizedAt() >= lockedAt+sim.Time(pos.MinLock) {
		// The sore-loser case: the insured's capital was locked past the
		// trigger and the deal still died. The bond pays; the pool keeps
		// the premium.
		pos.PaidOut = true
		out.Payout = true
		out.Amount = pos.Collateral
		m.totals.Payouts += pos.Collateral
	} else {
		// Commit, early abort, or nothing ever deposited: the cover was
		// not consumed. The premium returns minus the retention fee.
		fee := pos.Premium * m.params.RefundFeeBps / 10000
		out.Amount = pos.Premium - fee
		m.totals.Refunds += out.Amount
		m.totals.Retained += fee
	}
	env.Write(2) // position + pool ledger
	env.Emit(EventSettled, SettledEvent{
		Deal: a.Deal, Insured: pos.Insured, Payout: out.Payout, Amount: out.Amount,
	})
	return out, nil
}
