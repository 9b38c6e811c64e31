package metricreg_test

import (
	"testing"

	"tradeoff/internal/analysis/analysistest"
	"tradeoff/internal/analysis/metricreg"
)

func TestMetricreg(t *testing.T) {
	analysistest.Run(t, "testdata", metricreg.Analyzer, "metrictest")
}
