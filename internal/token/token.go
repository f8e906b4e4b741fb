// Package token implements the asset contracts that deals transfer:
// a fungible token modeled on the ERC20 standard (the coins of the
// paper's example, and the asset type of Figure 3), and a non-fungible
// token registry (the theater tickets).
//
// Escrow managers pull assets with transferFrom after the owner grants
// them operator rights, exactly as Figure 3 line 8 does. Operator
// approval is all-or-nothing rather than per-amount so that transferFrom
// costs two storage writes (sender and recipient balances), matching the
// paper's gas count of two writes for the inner transfer.
package token

import (
	"errors"
	"fmt"

	"xdeal/internal/chain"
)

// Errors returned by the token contracts.
var (
	ErrInsufficientBalance = errors.New("token: insufficient balance")
	ErrNotOwner            = errors.New("token: sender does not own token")
	ErrNotApproved         = errors.New("token: spender not approved by owner")
	ErrUnknownToken        = errors.New("token: no such token id")
	ErrExists              = errors.New("token: token id already minted")
)

// Methods understood by both token contracts. Argument struct types are
// exported so callers (parties and escrow contracts) build them directly.
const (
	MethodTransfer     = "transfer"
	MethodTransferFrom = "transferFrom"
	MethodApprove      = "approve"
	MethodMint         = "mint"
	MethodBalanceOf    = "balanceOf" // read-only
	MethodOwnerOf      = "ownerOf"   // read-only
)

// TransferArgs moves value from the sender.
type TransferArgs struct {
	To     chain.Addr
	Amount uint64 // fungible
	Token  string // non-fungible
}

// TransferFromArgs moves value from From on behalf of an approved operator.
type TransferFromArgs struct {
	From   chain.Addr
	To     chain.Addr
	Amount uint64 // fungible
	Token  string // non-fungible
}

// ApproveArgs grants or revokes operator rights over the sender's assets.
type ApproveArgs struct {
	Operator chain.Addr
	Allowed  bool
}

// MintArgs creates new assets. Only the contract's minter may call it.
type MintArgs struct {
	To     chain.Addr
	Amount uint64 // fungible
	Token  string // non-fungible
}

// Fungible is an ERC20-style token ledger.
type Fungible struct {
	Minter    chain.Addr
	balances  map[chain.Addr]uint64
	operators map[chain.Addr]map[chain.Addr]bool // owner -> operator -> allowed
	supply    uint64
}

// NewFungible creates an empty fungible ledger whose Minter may mint.
func NewFungible(minter chain.Addr) *Fungible {
	f := &Fungible{
		balances:  make(map[chain.Addr]uint64),
		operators: make(map[chain.Addr]map[chain.Addr]bool),
	}
	f.Reset(minter)
	return f
}

// Reset empties the ledger, as NewFungible(minter) builds it, keeping its
// maps' storage. Nothing read from the ledger before the reset may be
// kept past it.
func (f *Fungible) Reset(minter chain.Addr) {
	clear(f.balances)
	clear(f.operators)
	*f = Fungible{Minter: minter, balances: f.balances, operators: f.operators}
}

// BalanceOf returns a holder's balance (for direct state reads in tests
// and party-side validation; on-chain callers use MethodBalanceOf).
func (f *Fungible) BalanceOf(a chain.Addr) uint64 { return f.balances[a] }

// TotalSupply returns the number of tokens minted.
func (f *Fungible) TotalSupply() uint64 { return f.supply }

// Invoke implements chain.Contract.
func (f *Fungible) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodTransfer:
		a, ok := args.(TransferArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, f.move(env, env.Sender(), a.To, a.Amount)

	case MethodTransferFrom:
		a, ok := args.(TransferFromArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		if env.Sender() != a.From && !f.operators[a.From][env.Sender()] {
			return nil, fmt.Errorf("%w: %s by %s", ErrNotApproved, a.From, env.Sender())
		}
		env.Read(1) // operator check
		return nil, f.move(env, a.From, a.To, a.Amount)

	case MethodApprove:
		a, ok := args.(ApproveArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		ops, ok := f.operators[env.Sender()]
		if !ok {
			ops = make(map[chain.Addr]bool)
			f.operators[env.Sender()] = ops
		}
		ops[a.Operator] = a.Allowed
		env.Write(1)
		return nil, nil

	case MethodMint:
		a, ok := args.(MintArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		if env.Sender() != f.Minter {
			return nil, fmt.Errorf("token: only minter %s may mint, not %s", f.Minter, env.Sender())
		}
		f.balances[a.To] += a.Amount
		f.supply += a.Amount
		env.Write(2)
		env.Emit("mint", a)
		return nil, nil

	case MethodBalanceOf:
		holder, ok := args.(chain.Addr)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		env.Read(1)
		return f.balances[holder], nil

	default:
		return nil, fmt.Errorf("%w: %s", chain.ErrUnknownMethod, method)
	}
}

// move transfers amount between balances: the two storage writes of §7.1.
func (f *Fungible) move(env *chain.Env, from, to chain.Addr, amount uint64) error {
	if f.balances[from] < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficientBalance, from, f.balances[from], amount)
	}
	f.balances[from] -= amount
	f.balances[to] += amount
	env.Write(2)
	env.Emit("transfer", TransferFromArgs{From: from, To: to, Amount: amount})
	return nil
}

// NFT is a registry of unique tokens (theater tickets).
type NFT struct {
	Minter    chain.Addr
	owners    map[string]chain.Addr
	operators map[chain.Addr]map[chain.Addr]bool
}

// NewNFT creates an empty registry whose Minter may mint.
func NewNFT(minter chain.Addr) *NFT {
	n := &NFT{
		owners:    make(map[string]chain.Addr),
		operators: make(map[chain.Addr]map[chain.Addr]bool),
	}
	n.Reset(minter)
	return n
}

// Reset empties the registry, as NewNFT(minter) builds it, keeping its
// maps' storage. Nothing read from the registry before the reset may be
// kept past it.
func (n *NFT) Reset(minter chain.Addr) {
	clear(n.owners)
	clear(n.operators)
	*n = NFT{Minter: minter, owners: n.owners, operators: n.operators}
}

// OwnerOf returns the owner of a token id, or "" if unminted.
func (n *NFT) OwnerOf(id string) chain.Addr { return n.owners[id] }

// Invoke implements chain.Contract.
func (n *NFT) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodTransfer:
		a, ok := args.(TransferArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, n.move(env, env.Sender(), env.Sender(), a.To, a.Token)

	case MethodTransferFrom:
		a, ok := args.(TransferFromArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		env.Read(1) // operator check
		return nil, n.move(env, env.Sender(), a.From, a.To, a.Token)

	case MethodApprove:
		a, ok := args.(ApproveArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		ops, ok := n.operators[env.Sender()]
		if !ok {
			ops = make(map[chain.Addr]bool)
			n.operators[env.Sender()] = ops
		}
		ops[a.Operator] = a.Allowed
		env.Write(1)
		return nil, nil

	case MethodMint:
		a, ok := args.(MintArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		if env.Sender() != n.Minter {
			return nil, fmt.Errorf("token: only minter %s may mint, not %s", n.Minter, env.Sender())
		}
		if _, exists := n.owners[a.Token]; exists {
			return nil, fmt.Errorf("%w: %s", ErrExists, a.Token)
		}
		n.owners[a.Token] = a.To
		env.Write(1)
		env.Emit("mint", a)
		return nil, nil

	case MethodOwnerOf:
		id, ok := args.(string)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		env.Read(1)
		owner, exists := n.owners[id]
		if !exists {
			return nil, fmt.Errorf("%w: %s", ErrUnknownToken, id)
		}
		return owner, nil

	default:
		return nil, fmt.Errorf("%w: %s", chain.ErrUnknownMethod, method)
	}
}

// move transfers token id from one owner to another after checking that
// the caller is the owner or an approved operator.
func (n *NFT) move(env *chain.Env, caller, from, to chain.Addr, id string) error {
	owner, exists := n.owners[id]
	if !exists {
		return fmt.Errorf("%w: %s", ErrUnknownToken, id)
	}
	if owner != from {
		return fmt.Errorf("%w: %s owned by %s, not %s", ErrNotOwner, id, owner, from)
	}
	if caller != from && !n.operators[from][caller] {
		return fmt.Errorf("%w: %s by %s", ErrNotApproved, from, caller)
	}
	n.owners[id] = to
	env.Write(1)
	env.Emit("transfer", TransferFromArgs{From: from, To: to, Token: id})
	return nil
}
