package costcharge_test

import (
	"testing"

	"mllibstar/internal/analysis/analysistest"
	"mllibstar/internal/analysis/costcharge"
)

func TestCostcharge(t *testing.T) {
	analysistest.Run(t, "testdata/src/a", costcharge.Analyzer)
}
