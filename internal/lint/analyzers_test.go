package lint_test

import (
	"testing"

	"github.com/dcslib/dcs/internal/lint"
	"github.com/dcslib/dcs/internal/lint/linttest"
)

func TestLoopcheck(t *testing.T) {
	linttest.Run(t, "testdata/loopcheck", lint.Loopcheck)
}

func TestGuardedby(t *testing.T) {
	linttest.Run(t, "testdata/guardedby", lint.Guardedby)
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, "testdata/ctxflow", lint.Ctxflow)
}

// TestAllowPolicy checks the //lint:allow escape hatch itself: a reasoned
// allow suppresses, while a missing reason, an unknown analyzer name, or
// multiple names are diagnostics in their own right and suppress nothing.
func TestAllowPolicy(t *testing.T) {
	linttest.Run(t, "testdata/allow", lint.Loopcheck)
}
