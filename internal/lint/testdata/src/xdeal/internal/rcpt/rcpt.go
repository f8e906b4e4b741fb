// Receiptcheck fixtures: discarded evidence and unobserved inline
// submissions.
package rcpt

import (
	"xdeal/internal/chain"
	"xdeal/internal/escrow"
	"xdeal/internal/hedge"
)

func use(args ...any) {}

func discards(c *chain.Chain, b *escrow.Book, m *escrow.Manager, h *hedge.Manager) {
	c.Deploy("a", nil)          // want `discarded in statement position`
	_ = c.Deploy("a", nil)      // want `assigned to _`
	go b.Register("x")          // want `discarded by go statement`
	defer b.FinalizeCommit("x") // want `discarded by defer`
	m.HandleEscrow(nil)         // want `discarded in statement position`
	h.Invoke("m", nil)          // want `discarded in statement position`
	c.BumpBundleBid("d", 1)     // want `discarded in statement position`

	v, _ := c.Query("a", "m", nil) // want `assigned to _`
	use(v)

	if err := c.Deploy("a", nil); err != nil { // ok: consumed
		use(err)
	}
	r, err := c.Query("a", "m", nil) // ok: both results bound
	use(r, err)
	if c.BumpBundleBid("d", 1) { // ok: consumed in condition
		use()
	}
}

func submits(c *chain.Chain, prewired *chain.Tx) {
	c.Submit(&chain.Tx{Method: "m"})                                     // want `without an OnReceipt observer`
	c.Submit(&chain.Tx{Method: "m", OnReceipt: func(*chain.Receipt) {}}) // ok: observed
	c.Submit(prewired)                                                   // ok: wired by its builder
	c.SubmitBundled(chain.BundleTx{Tx: &chain.Tx{Method: "m"}})          // want `without an OnReceipt observer`
	c.SubmitBundled(chain.BundleTx{
		Tx: &chain.Tx{Method: "m", OnReceipt: func(*chain.Receipt) {}}, // ok: observed
	})
}
