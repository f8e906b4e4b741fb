// Package chain is a fixture stub: just enough surface for the
// analyzers' funcKey matching (xdeal/internal/chain.Chain.Submit, ...).
package chain

type Addr string

type ID string

type Receipt struct {
	Tx  *Tx
	Err error
}

type Tx struct {
	Sender    Addr
	Contract  Addr
	Method    string
	Label     string
	Args      any
	Tip       uint64
	OnReceipt func(*Receipt)
}

type BundleTx struct {
	Deal      string
	Tx        *Tx
	PerSlot   uint64
	OnAuction func(won bool, slots int)
}

type PendingTx struct {
	Label string
}

type Chain struct{}

func (c *Chain) Submit(tx *Tx)             {}
func (c *Chain) SubmitBundled(bt BundleTx) {}

func (c *Chain) BumpBundleBid(deal string, perSlot uint64) bool { return false }

func (c *Chain) Deploy(addr Addr, contract any) error { return nil }

func (c *Chain) Query(addr Addr, method string, args any) (any, error) { return nil, nil }

type Env struct{}

func (e *Env) Call(contract Addr, method string, args any) (any, error) { return nil, nil }

func (e *Env) VerifyPath(p any) error { return nil }
