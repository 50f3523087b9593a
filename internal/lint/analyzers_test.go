package lint_test

import (
	"testing"

	"github.com/dcslib/dcs/internal/lint"
	"github.com/dcslib/dcs/internal/lint/linttest"
)

func TestLoopcheck(t *testing.T) {
	linttest.Run(t, "testdata/loopcheck", lint.Loopcheck)
}

func TestFloatdet(t *testing.T) {
	linttest.Run(t, "testdata/floatdet", lint.Floatdet)
}

func TestGuardedby(t *testing.T) {
	linttest.Run(t, "testdata/guardedby", lint.Guardedby)
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, "testdata/ctxflow", lint.Ctxflow)
}

// TestGuardedbyFacts checks the exported guarded-by contract: a consumer
// package touching an annotated field of an imported struct is held to the
// declaring package's annotation.
func TestGuardedbyFacts(t *testing.T) {
	linttest.Run(t, "testdata/guardedbyfacts", lint.Guardedby)
}

// TestAllowPolicy checks the //lint:allow escape hatch itself: a reasoned
// allow suppresses, while a missing reason, an unknown analyzer name, or
// multiple names are diagnostics in their own right and suppress nothing.
func TestAllowPolicy(t *testing.T) {
	linttest.Run(t, "testdata/allow", lint.Loopcheck)
}
