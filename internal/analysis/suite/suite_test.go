package suite_test

import (
	"regexp"
	"strings"
	"testing"

	"tradeoff/internal/analysis/suite"
)

// nameRE is the registration contract: //lint:ignore directives name
// analyzers, so names must be single lowercase identifiers.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*$`)

// TestRegistration pins the suite's registration contract: every
// analyzer has a lowercase unique name, a doc string whose first line
// summarizes the check, and a Run function.
func TestRegistration(t *testing.T) {
	if len(suite.Analyzers) != 8 {
		t.Fatalf("suite has %d analyzers, want 8 (paramdomain, floatcmp, ctxflow, errdrop, spanleak, lockguard, detorder, hotalloc)", len(suite.Analyzers))
	}
	seen := map[string]bool{}
	for _, a := range suite.Analyzers {
		if !nameRE.MatchString(a.Name) {
			t.Errorf("analyzer name %q is not a lowercase identifier", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("analyzer name %q registered more than once", a.Name)
		}
		seen[a.Name] = true
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("analyzer %s has no doc string", a.Name)
		} else if first, _, _ := strings.Cut(a.Doc, "\n"); !strings.HasPrefix(first, "flags ") {
			t.Errorf("analyzer %s doc %q: first line should summarize what it flags", a.Name, first)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run function", a.Name)
		}
	}
}
