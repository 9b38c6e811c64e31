// Package paramdomain enforces Table 1's parameter domains where a
// core.Params is built. Eqs. (1)–(9) only hold for α ∈ [0, 1],
// βm ≥ 1, L ≥ D > 0, φ ≥ 0 and positive instruction/traffic counts; a
// core.Params built outside those domains produces numbers that look
// plausible and mean nothing.
//
// Two kinds of findings:
//
//  1. a composite literal or field write whose *constant* value lies
//     outside the field's Table 1 domain (α = 1.5, βm = 0), or a
//     literal whose constant L, D and φ break L ≥ D or φ ≤ L/D, and
//  2. a function that builds a non-empty core.Params composite literal
//     but contains no reachable domain check — no Params.Validate()
//     call and no call to a validation helper (a callee whose name
//     contains "valid") — so runtime values bypass the domain entirely.
//
// Every other configuration type (sweep.Config, simjob.Grid, the mrc
// and model specs) owns its domain in its Validate method alone; the
// service runs those on every payload, and FuzzEndpoints drives them.
package paramdomain

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math"
	"strings"

	"tradeoff/internal/analysis/lint"
	"tradeoff/internal/analysis/typeutil"
)

// Analyzer is the paramdomain check.
var Analyzer = &lint.Analyzer{
	Name: "paramdomain",
	Doc:  "flags core.Params constructions whose constant fields violate Table 1's parameter domains (α ∈ [0,1], βm ≥ 1, L ≥ D > 0, φ ≤ L/D, …) and core.Params built without a reachable Validate() call",
	Run:  run,
}

// A domain is one field's allowed interval; max may be +Inf.
type domain struct {
	min, max float64
	minExcl  bool
}

func (d domain) contains(v float64) bool { // false for NaN
	if d.minExcl {
		return v > d.min && v <= d.max
	}
	return v >= d.min && v <= d.max
}

func (d domain) String() string {
	lo, hi := "[", fmt.Sprintf("%g]", d.max)
	if d.minExcl {
		lo = "("
	}
	if math.IsInf(d.max, 1) {
		hi = "+inf)"
	}
	return fmt.Sprintf("%s%g, %s", lo, d.min, hi)
}

var inf = math.Inf(1)

// paramsDomains encodes Table 1's field domains of core.Params.
var paramsDomains = map[string]domain{
	"E":     {min: 0, max: inf, minExcl: true},
	"R":     {min: 0, max: inf},
	"W":     {min: 0, max: inf},
	"Alpha": {min: 0, max: 1},
	"Phi":   {min: 0, max: inf},
	"D":     {min: 0, max: inf, minExcl: true},
	"L":     {min: 0, max: inf, minExcl: true},
	"BetaM": {min: 1, max: inf},
}

func isParams(t types.Type) bool { return typeutil.IsNamedSuffix(t, "core", "Params") }

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkLiteral(pass, n)
			case *ast.AssignStmt:
				checkFieldWrites(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkValidateReachable(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkLiteral verifies every constant field of a core.Params
// composite literal, then the cross-field constraints L ≥ D and
// φ ≤ L/D when enough fields are constant to decide them.
func checkLiteral(pass *lint.Pass, lit *ast.CompositeLit) {
	if !isParams(pass.TypeOf(lit)) || len(lit.Elts) == 0 {
		return
	}
	strct, ok := typeutil.Deref(types.Unalias(pass.TypeOf(lit))).Underlying().(*types.Struct)
	if !ok {
		return
	}
	consts := map[string]float64{}
	for i, elt := range lit.Elts {
		name, value := "", ast.Expr(nil)
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				name, value = id.Name, kv.Value
			}
		} else if i < strct.NumFields() {
			name, value = strct.Field(i).Name(), elt
		}
		if name == "" || value == nil {
			continue
		}
		v, isConst := constFloat(pass, value)
		if !isConst {
			continue
		}
		consts[name] = v
		checkField(pass, name, value, v)
	}
	checkParamsCross(pass, lit.Pos(), consts)
}

// checkField reports a constant value v of field name outside its
// Table 1 domain.
func checkField(pass *lint.Pass, name string, value ast.Expr, v float64) {
	if d, ruled := paramsDomains[name]; ruled && !d.contains(v) {
		pass.Reportf(value.Pos(), "Params.%s = %g outside its domain %s", name, v, d)
	}
}

// checkParamsCross enforces L ≥ D and φ ≤ L/D (Table 2's full-stall
// ceiling) when the participating fields are all compile-time
// constants in one literal.
func checkParamsCross(pass *lint.Pass, pos token.Pos, consts map[string]float64) {
	l, haveL := consts["L"]
	d, haveD := consts["D"]
	if haveL && haveD && d > 0 && l < d {
		pass.Reportf(pos, "Params has L = %g smaller than D = %g; a line is fetched in whole bus transfers, so L ≥ D", l, d)
	}
	if phi, havePhi := consts["Phi"]; havePhi && haveL && haveD && d > 0 && l >= d && phi > l/d {
		pass.Reportf(pos, "Params has φ = %g above the full-stall ceiling L/D = %g (Table 2)", phi, l/d)
	}
}

// checkFieldWrites verifies constant assignments to core.Params
// fields, e.g. p.Alpha = 1.5.
func checkFieldWrites(pass *lint.Pass, assign *ast.AssignStmt) {
	if assign.Tok != token.ASSIGN || len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !isParams(pass.TypeOf(sel.X)) {
			continue
		}
		if v, isConst := constFloat(pass, assign.Rhs[i]); isConst {
			checkField(pass, sel.Sel.Name, assign.Rhs[i], v)
		}
	}
}

// checkValidateReachable reports non-empty core.Params literals in
// functions that never reach a domain check.
func checkValidateReachable(pass *lint.Pass, fn *ast.FuncDecl) {
	var lits []*ast.CompositeLit
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && len(lit.Elts) > 0 && isParams(pass.TypeOf(lit)) {
			lits = append(lits, lit)
		}
		return true
	})
	if len(lits) == 0 || hasDomainCheck(fn.Body) {
		return
	}
	for _, lit := range lits {
		pass.Reportf(lit.Pos(), "core.Params built in %s with no reachable domain check; call Params.Validate before using it", fn.Name.Name)
	}
}

// hasDomainCheck reports whether the body calls Params.Validate or any
// validation helper — a callee whose name contains "valid" (Validate,
// validFraction, validAlpha, …).
func hasDomainCheck(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			found = isValidateName(fun.Name)
		case *ast.SelectorExpr:
			found = isValidateName(fun.Sel.Name)
		}
		return !found
	})
	return found
}

func isValidateName(name string) bool {
	return strings.Contains(strings.ToLower(name), "valid")
}

// constFloat resolves e to a constant numeric value.
func constFloat(pass *lint.Pass, e ast.Expr) (float64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
		return v, true
	}
	return 0, false
}
