package engine

import (
	"xdeal/internal/chain"
	"xdeal/internal/sig"
)

// WithoutVerifyMemo runs fn with every substrate created meanwhile
// signing and verifying with ed25519, as if no memo existed.
func WithoutVerifyMemo(fn func()) {
	defer func(restore func() *sig.Memo) { newVerifyMemo = restore }(newVerifyMemo)
	newVerifyMemo = func() *sig.Memo { return nil }
	fn()
}

// ReceiptRef is one of a deal's receipts: its chain, its position in
// that chain's receipt log, and the receipt.
type ReceiptRef struct {
	Chain chain.ID
	Idx   int
	R     *chain.Receipt
}

// DealReceipts returns the deal's receipts in the order the span DAG
// visits them.
func (w *World) DealReceipts() []ReceiptRef {
	var out []ReceiptRef
	for _, dr := range w.dealReceipts() {
		out = append(out, ReceiptRef{dr.chain, dr.idx, dr.r})
	}
	return out
}

// LabelPrefix returns the label prefix the world was built with.
func (w *World) LabelPrefix() string { return w.opts.LabelPrefix }
