// Package metricreg keeps expvar metric names coherent with the
// /metrics snake_case scheme. Two failure modes are machine-checked:
//
//  1. duplicate registration — expvar.Publish (and the NewInt/NewFloat/
//     NewMap/NewString wrappers) panic at runtime when a name is
//     registered twice; metricreg reports the second registration of
//     any constant name within a package at build time instead, and
//  2. naming drift — every constant metric name passed to a
//     registration call or to (*expvar.Map).Set must be lower
//     snake_case (`^[a-z][a-z0-9_]*$`), the scheme of the /metrics
//     documents (requests_total, cache_hits, latency_us_total, …);
//     camelCase, dashes and dots would fracture them into inconsistent
//     dialects.
//
// The service's own metrics need no analyzer: each is named once on
// an obs.Registry, whose Add panics on a duplicate or non-snake_case
// name the first time a server is built (and tests build one).
package metricreg

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"tradeoff/internal/analysis/lint"
	"tradeoff/internal/analysis/typeutil"
)

// Analyzer is the metricreg check.
var Analyzer = &lint.Analyzer{
	Name: "metricreg",
	Doc:  "flags expvar metric names registered more than once or diverging from the snake_case /metrics naming scheme",
	Run:  run,
}

// registerFuncs are the expvar package functions that publish into the
// process-global registry and panic on duplicates.
var registerFuncs = map[string]bool{
	"Publish":   true,
	"NewInt":    true,
	"NewFloat":  true,
	"NewMap":    true,
	"NewString": true,
}

// metricNameRE is the /metrics scheme: lower snake_case, starting
// with a letter.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func run(pass *lint.Pass) error {
	// Package-wide, file-order traversal keeps "first registration
	// wins, later ones are flagged" deterministic.
	seen := map[string]token.Pos{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := typeutil.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "expvar" {
				return true
			}
			global := fn.Type().(*types.Signature).Recv() == nil && registerFuncs[fn.Name()]
			mapSet := typeutil.IsNamed(recvType(fn), "expvar", "Map") && fn.Name() == "Set"
			if !global && !mapSet {
				return true
			}
			name, ok := constString(pass, call.Args[0])
			if !ok {
				return true
			}
			if !metricNameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "metric name %q is not snake_case; the /metrics scheme is ^[a-z][a-z0-9_]*$", name)
			}
			if !global {
				return true
			}
			if first, dup := seen[name]; dup {
				pass.Reportf(call.Args[0].Pos(), "expvar metric %q registered more than once (first at %s); expvar.Publish panics on duplicates", name, pass.Fset.Position(first))
			} else {
				seen[name] = call.Args[0].Pos()
			}
			return true
		})
	}
	return nil
}

func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	return recv.Type()
}

func constString(pass *lint.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
