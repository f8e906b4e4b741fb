package escrow

import (
	"reflect"
	"slices"

	"xdeal/internal/chain"
	"xdeal/internal/deal"
)

// Contract methods shared by all escrow managers. The timelock and CBC
// managers add their own commit/abort methods on top.
const (
	MethodEscrow   = "escrow"
	MethodTransfer = "transfer"
	MethodStatus   = "status" // read-only query
)

// EscrowArgs is the argument to MethodEscrow: the escrow(D, Dinfo, a)
// call of §5/§6. Info carries the protocol-specific Dinfo, which must be
// identical across all escrow calls for the same deal.
type EscrowArgs struct {
	Deal    string
	Parties []chain.Addr
	Info    any
	Amount  uint64   // fungible
	Tokens  []string // non-fungible
}

// TransferArgs is the argument to MethodTransfer: the tentative
// transfer(D, a, a', Q) call.
type TransferArgs struct {
	Deal   string
	To     chain.Addr
	Amount uint64   // fungible
	Tokens []string // non-fungible
}

// Event kinds emitted by escrow managers.
const (
	EventEscrowed    = "escrowed"
	EventTransferred = "transferred"
	EventCommitted   = "committed"
	EventAborted     = "aborted"
)

// EscrowedEvent reports a completed escrow call.
type EscrowedEvent struct {
	Deal   string
	Party  chain.Addr
	Amount uint64
	Tokens []string
}

// TransferredEvent reports a tentative transfer.
type TransferredEvent struct {
	Deal   string
	From   chain.Addr
	To     chain.Addr
	Amount uint64
	Tokens []string
}

// OutcomeEvent reports that a deal committed or aborted at this contract.
type OutcomeEvent struct {
	Deal   string
	Status Status
}

// The escrow events are about their deal: a chain publishes each under
// the deal's id as its topic (see chain.Event.Topic).

// Topic names the event's deal.
func (e EscrowedEvent) Topic() string { return e.Deal }

// Topic names the event's deal.
func (e TransferredEvent) Topic() string { return e.Deal }

// Topic names the event's deal.
func (e OutcomeEvent) Topic() string { return e.Deal }

// Manager is the deployable EscrowManager contract of Figure 3, handling
// the escrow and transfer phases. It has no commit machinery of its own;
// the timelock and CBC managers embed it and add theirs.
type Manager struct {
	*Book
	// InfoEqual compares two Dinfo values; defaults to reflect.DeepEqual.
	InfoEqual func(a, b any) bool
}

// NewManager creates a Manager for the given token contract.
func NewManager(book *Book) *Manager {
	return &Manager{Book: book}
}

// infoEqual applies the configured comparison, also requiring equal
// party lists.
func (m *Manager) infoEqual(a, b any) bool {
	if m.InfoEqual != nil {
		return m.InfoEqual(a, b)
	}
	return reflect.DeepEqual(a, b)
}

// Invoke implements chain.Contract for the shared escrow/transfer phases.
func (m *Manager) Invoke(env *chain.Env, method string, args any) (any, error) {
	switch method {
	case MethodEscrow:
		a, ok := args.(EscrowArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.HandleEscrow(env, a)
	case MethodTransfer:
		a, ok := args.(TransferArgs)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return nil, m.HandleTransfer(env, a)
	case MethodStatus:
		id, ok := args.(string)
		if !ok {
			return nil, chain.ErrBadArgs
		}
		return m.ViewOf(id), nil
	default:
		return nil, chain.ErrUnknownMethod
	}
}

// HandleEscrow registers the deal if needed and escrows the sender's
// assets. Exported so embedding managers can route their Invoke here.
func (m *Manager) HandleEscrow(env *chain.Env, a EscrowArgs) error {
	st, err := m.Register(env, a.Deal, a.Parties, a.Info, m.infoEqual)
	if err != nil {
		return err
	}
	if !slices.Equal(st.Parties, a.Parties) {
		return ErrInfoMismatch
	}
	if m.Kind == deal.Fungible {
		err = m.EscrowFungible(env, a.Deal, a.Amount)
	} else {
		err = m.EscrowTokens(env, a.Deal, a.Tokens)
	}
	if err != nil {
		return err
	}
	env.Emit(EventEscrowed, EscrowedEvent{
		Deal: a.Deal, Party: env.Sender(), Amount: a.Amount, Tokens: a.Tokens,
	})
	return nil
}

// HandleTransfer performs a tentative transfer.
func (m *Manager) HandleTransfer(env *chain.Env, a TransferArgs) error {
	var err error
	if m.Kind == deal.Fungible {
		err = m.TransferFungible(env, a.Deal, a.To, a.Amount)
	} else {
		err = m.TransferTokens(env, a.Deal, a.To, a.Tokens)
	}
	if err != nil {
		return err
	}
	env.Emit(EventTransferred, TransferredEvent{
		Deal: a.Deal, From: env.Sender(), To: a.To, Amount: a.Amount, Tokens: a.Tokens,
	})
	return nil
}
