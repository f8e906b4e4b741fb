package lint

import (
	"go/ast"
)

// ReceiptCheck forbids discarding the evidence-bearing results of the
// chain and contract APIs. Receipts and errors from submission,
// deployment, and escrow/hedge contract calls are exactly the trail a
// Property 1–3 violation leaves behind; a call whose result is dropped
// on the floor is a violation the report can never show.
//
// Two rules:
//
//   - the error / receipt / ack results of the functions in
//     mustConsume may not be discarded: not by calling in statement
//     position, not via go/defer, and not by assigning the final
//     result to _;
//   - a transaction submitted through Chain.Submit / SubmitBundled
//     as an inline &Tx{...} literal must carry an OnReceipt
//     callback: with no observer, the execution receipt —
//     including its error — is unobservable. Transactions built
//     elsewhere and passed as variables are assumed to have been
//     wired by their builder (party.submitTx always attaches one).
var ReceiptCheck = &Analyzer{
	Name: "receiptcheck",
	Doc: "forbid discarding receipts and errors from chain and contract calls\n\n" +
		"A dropped receipt is how Property-violation evidence gets lost:\n" +
		"handle the result, or route it somewhere a report can see it.",
	Run: runReceiptCheck,
}

// mustConsume maps funcKey to the index of the result that carries the
// evidence (error, receipt, or ack); -1 means every result counts.
var mustConsume = map[string]bool{
	"xdeal/internal/chain.Chain.Deploy":        true,
	"xdeal/internal/chain.Chain.Query":         true,
	"xdeal/internal/chain.Chain.BumpBundleBid": true,
	"xdeal/internal/chain.Env.Call":            true,
	"xdeal/internal/chain.Env.VerifyPath":      true,

	"xdeal/internal/escrow.Book.Register":          true,
	"xdeal/internal/escrow.Book.EscrowFungible":    true,
	"xdeal/internal/escrow.Book.EscrowTokens":      true,
	"xdeal/internal/escrow.Book.TransferFungible":  true,
	"xdeal/internal/escrow.Book.TransferTokens":    true,
	"xdeal/internal/escrow.Book.FinalizeCommit":    true,
	"xdeal/internal/escrow.Book.FinalizeAbort":     true,
	"xdeal/internal/escrow.Manager.Invoke":         true,
	"xdeal/internal/escrow.Manager.HandleEscrow":   true,
	"xdeal/internal/escrow.Manager.HandleTransfer": true,

	"xdeal/internal/hedge.Manager.Invoke": true,
}

// submitFuncs maps funcKey of the submission entry points to the
// argument index of the transaction (or bundle) they publish.
var submitFuncs = map[string]int{
	"xdeal/internal/chain.Chain.Submit":        0,
	"xdeal/internal/chain.Chain.SubmitBundled": 0,
}

func runReceiptCheck(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscarded(pass, call, "discarded in statement position")
				}
			case *ast.GoStmt:
				checkDiscarded(pass, n.Call, "discarded by go statement")
			case *ast.DeferStmt:
				checkDiscarded(pass, n.Call, "discarded by defer")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			case *ast.CallExpr:
				checkSubmitSink(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDiscarded reports a statement-position call whose results are
// all dropped.
func checkDiscarded(pass *Pass, call *ast.CallExpr, how string) {
	key := consumeKey(pass, call)
	if key == "" {
		return
	}
	pass.Reportf(call.Pos(), "receipt/error result of %s %s; a dropped receipt is how Property-violation evidence gets lost — handle it or record it", key, how)
}

// checkBlankAssign reports assignments that bind the final
// (evidence-carrying) result of a must-consume call to the blank
// identifier.
func checkBlankAssign(pass *Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	key := consumeKey(pass, call)
	if key == "" {
		return
	}
	// The final result is the error/ack; the call is flagged when it —
	// or everything — lands in _.
	last := st.Lhs[len(st.Lhs)-1]
	if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(st.Pos(), "error result of %s assigned to _; a dropped receipt is how Property-violation evidence gets lost — handle it or record it", key)
	}
}

// consumeKey returns the funcKey if call targets a must-consume
// function, else "".
func consumeKey(pass *Pass, call *ast.CallExpr) string {
	obj := calleeObject(pass.TypesInfo, call)
	if obj == nil {
		return ""
	}
	key := funcKey(obj)
	if !mustConsume[key] {
		return ""
	}
	return key
}

// checkSubmitSink reports inline &Tx{...} submissions with no
// OnReceipt observer.
func checkSubmitSink(pass *Pass, call *ast.CallExpr) {
	obj := calleeObject(pass.TypesInfo, call)
	if obj == nil {
		return
	}
	argIdx, ok := submitFuncs[funcKey(obj)]
	if !ok || len(call.Args) <= argIdx {
		return
	}
	lit := txLiteral(call.Args[argIdx])
	if lit == nil {
		return
	}
	if !hasField(lit, "OnReceipt") {
		pass.Reportf(lit.Pos(), "transaction submitted without an OnReceipt observer: its execution receipt (and any error) is unobservable — attach OnReceipt or submit through a wired builder")
	}
}

// txLiteral digs the &Tx{...} composite literal out of a submission
// argument: either the argument itself, or the Tx field of an inline
// BundleTx{...} literal.
func txLiteral(arg ast.Expr) *ast.CompositeLit {
	switch e := ast.Unparen(arg).(type) {
	case *ast.UnaryExpr:
		if lit, ok := e.X.(*ast.CompositeLit); ok {
			return lit
		}
	case *ast.CompositeLit:
		// BundleTx{Tx: &Tx{...}, ...}
		for _, el := range e.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Tx" {
				return txLiteral(kv.Value)
			}
		}
	}
	return nil
}

// hasField reports whether the composite literal sets the named field.
func hasField(lit *ast.CompositeLit, name string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}
