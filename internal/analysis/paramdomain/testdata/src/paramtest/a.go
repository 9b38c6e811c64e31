package paramtest

import (
	"core"
)

func use(p core.Params) {}
func hitRatio() float64 { return 0.95 }

func constantViolations() {
	p := core.Params{
		E:     1e6,
		Alpha: 1.5, // want `Params.Alpha = 1.5 outside its domain \[0, 1\]`
		BetaM: 0.5, // want `Params.BetaM = 0.5 outside its domain \[1, \+inf\)`
		D:     0,   // want `Params.D = 0 outside its domain \(0, \+inf\)`
		L:     32,
	}
	if err := p.Validate(); err != nil {
		return
	}
	use(p)
}

func crossFieldViolations() {
	p := core.Params{ // want `L = 8 smaller than D = 16`
		E: 1e6, Alpha: 0.5, Phi: 0.5, D: 16, L: 8, BetaM: 4,
	}
	q := core.Params{ // want `φ = 16 above the full-stall ceiling L/D = 8`
		E: 1e6, Alpha: 0.5, Phi: 16, D: 4, L: 32, BetaM: 4,
	}
	if p.Validate() == nil && q.Validate() == nil {
		use(p)
	}
}

func fieldWrites(p core.Params) {
	p.Alpha = -0.25 // want `Params.Alpha = -0.25 outside its domain \[0, 1\]`
	p.BetaM = 10    // in domain: fine
	p.Phi = p.L / p.D
	use(p)
}

func unvalidated(e float64) core.Params {
	return core.Params{E: e, Alpha: 0.5, D: 4, L: 32, BetaM: 10} // want `core.Params built in unvalidated with no reachable domain check`
}

func validatedViaHelper(e float64) core.Params {
	p := core.Params{E: e, Alpha: 0.5, D: 4, L: 32, BetaM: 10}
	if !validFraction(hitRatio()) {
		return core.Params{}
	}
	return p
}

func validFraction(v float64) bool { return v > 0 && v < 1 }

func zeroValueIsFine() core.Params {
	return core.Params{} // zero literal: error-path value, not a design point
}

func positionalLiteral() {
	// Unkeyed literal: fields resolve by declaration order.
	p := core.Params{1e6, 0, 0, 2.0, 1, 4, 32, 10} // want `Params.Alpha = 2 outside its domain \[0, 1\]`
	if p.Validate() == nil {
		use(p)
	}
}

func suppressed() core.Params {
	//lint:ignore paramdomain synthetic stress point exercised by a fuzzer
	return core.Params{E: 1, Alpha: 0.5, D: 4, L: 32, BetaM: 10}
}
