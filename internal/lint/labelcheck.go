package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// LabelCheck enforces that gas/fee/hedge ledger attribution labels are
// prefix-composed from the declared constant set (party.LabelEscrow,
// LabelTransfer, LabelCommit, LabelAbort, LabelHedge, LabelSetup, ...)
// rather than retyped as string literals.
//
// Every per-phase gas row in the Figure-4 table and every fee-burn
// attribution keys off these labels; a transaction labeled "comit"
// executes fine and silently vanishes from the commit row. The check:
// at each site that attributes gas or fees by label — Meter.Charge,
// Meter.UsedByLabel, Market.Charge, the Label field of a chain.Tx
// literal, and the party submission helpers — the label expression
// must bottom out in a declared Label* constant. Prefix composition
// (`p.cfg.LabelPrefix + label`, `dealID + "/" + LabelCommit`) is fine:
// only the final `+` operand is checked, because that is the phase
// component the accounting aggregates by. Values flowing through
// variables and parameters are accepted — they were composed (and
// checked) where the constant entered.
var LabelCheck = &Analyzer{
	Name: "labelcheck",
	Doc: "require gas/fee attribution labels to be composed from the declared Label* constants\n\n" +
		"A retyped label literal silently mis-attributes gas and fee rows;\n" +
		"compose labels from party.Label* (optionally behind a prefix).",
	Run: runLabelCheck,
}

// labelArgSites maps funcKey to the index of the label argument.
var labelArgSites = map[string]int{
	"xdeal/internal/gas.Meter.Charge":        0,
	"xdeal/internal/gas.Meter.UsedByLabel":   0,
	"xdeal/internal/gas.Meter.CountByLabel":  0,
	"xdeal/internal/feemarket.Market.Charge": 0,
	"xdeal/internal/party.Party.submit":      2,
	"xdeal/internal/party.Party.submitTx":    3,
	"xdeal/internal/party.Party.raceTip":     1,
}

// labelFieldTypes names the struct types whose Label field is an
// attribution label.
var labelFieldTypes = map[string]bool{
	"xdeal/internal/chain.Tx":        true,
	"xdeal/internal/chain.PendingTx": true,
}

func runLabelCheck(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := calleeObject(pass.TypesInfo, n)
				if obj == nil {
					return true
				}
				if idx, ok := labelArgSites[funcKey(obj)]; ok && idx < len(n.Args) {
					checkLabelExpr(pass, n.Args[idx])
				}
			case *ast.CompositeLit:
				checkLabelField(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkLabelField checks the Label field of Tx-like composite literals.
func checkLabelField(pass *Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	if !labelFieldTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Label" {
			checkLabelExpr(pass, kv.Value)
		}
	}
}

// checkLabelExpr verifies the label expression bottoms out in a
// declared Label* constant, walking to the rightmost operand of any
// `+` composition.
func checkLabelExpr(pass *Pass, e ast.Expr) {
	e = ast.Unparen(e)
	if bin, ok := e.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		checkLabelExpr(pass, bin.Y)
		return
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // dynamic value: composed (and checked) upstream
	}
	if obj := constObjOf(pass.TypesInfo, e); obj != nil {
		if _, isConst := obj.(*types.Const); isConst && len(obj.Name()) > len("Label") && obj.Name()[:len("Label")] == "Label" {
			return // a declared Label* constant
		}
	}
	pass.Reportf(e.Pos(), "attribution label %s must be composed from the declared Label* constant set; a retyped literal silently mis-attributes gas and fee rows", tv.Value.ExactString())
}

// constObjOf resolves the object an identifier or selector refers to.
func constObjOf(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}
