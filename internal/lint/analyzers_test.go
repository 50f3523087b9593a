package lint_test

import (
	"testing"

	"github.com/dcslib/dcs/internal/lint"
	"github.com/dcslib/dcs/internal/lint/linttest"
)

func TestLoopcheck(t *testing.T) {
	linttest.Run(t, "testdata/loopcheck", lint.Loopcheck)
}

func TestBackedwrite(t *testing.T) {
	linttest.Run(t, "testdata/backedwrite", lint.Backedwrite)
}

func TestFloatdet(t *testing.T) {
	linttest.Run(t, "testdata/floatdet", lint.Floatdet)
}

func TestGuardedby(t *testing.T) {
	linttest.Run(t, "testdata/guardedby", lint.Guardedby)
}

func TestLeakcheck(t *testing.T) {
	linttest.Run(t, "testdata/leakcheck", lint.Leakcheck)
}

func TestCtxflow(t *testing.T) {
	linttest.Run(t, "testdata/ctxflow", lint.Ctxflow)
}

// TestBackedwriteFacts is the cross-package taint fixture: package B writes
// into backed CSR storage obtained (or handed off) through package A, and
// every finding depends on a summary fact imported across the boundary.
func TestBackedwriteFacts(t *testing.T) {
	linttest.Run(t, "testdata/facts", lint.Backedwrite)
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
