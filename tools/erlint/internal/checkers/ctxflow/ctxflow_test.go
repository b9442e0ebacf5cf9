package ctxflow_test

import (
	"testing"

	"repro/tools/erlint/internal/analysistest"
	"repro/tools/erlint/internal/checkers/ctxflow"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), ctxflow.Analyzer,
		"ctxflow", "repro/internal/fanout")
}
