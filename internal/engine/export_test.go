package engine

import "xdeal/internal/sig"

// WithoutVerifyMemo runs fn with every substrate created meanwhile
// verifying each signature in full, as if no memo existed.
func WithoutVerifyMemo(fn func()) {
	defer func(restore func() *sig.Memo) { newVerifyMemo = restore }(newVerifyMemo)
	newVerifyMemo = func() *sig.Memo { return nil }
	fn()
}
