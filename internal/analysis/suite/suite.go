// Package suite enumerates the tradeoffvet analyzers. cmd/tradeoffvet
// runs exactly this list; the meta-test in suite_test.go pins the
// registration contract (unique lowercase names, mandatory docs) every
// analyzer must honor for //lint:ignore directives and -list output to
// stay unambiguous.
package suite

import (
	"tradeoff/internal/analysis/ctxflow"
	"tradeoff/internal/analysis/detorder"
	"tradeoff/internal/analysis/errdrop"
	"tradeoff/internal/analysis/floatcmp"
	"tradeoff/internal/analysis/hotalloc"
	"tradeoff/internal/analysis/lint"
	"tradeoff/internal/analysis/lockguard"
	"tradeoff/internal/analysis/paramdomain"
	"tradeoff/internal/analysis/spanleak"
)

// Analyzers is the full tradeoffvet suite, in the order findings are
// attributed when several fire on one line. The first four are
// AST-local; the last four are flow-sensitive, built on the CFG and
// solvers in internal/analysis/dataflow.
var Analyzers = []*lint.Analyzer{
	paramdomain.Analyzer,
	floatcmp.Analyzer,
	ctxflow.Analyzer,
	errdrop.Analyzer,
	spanleak.Analyzer,
	lockguard.Analyzer,
	detorder.Analyzer,
	hotalloc.Analyzer,
}
