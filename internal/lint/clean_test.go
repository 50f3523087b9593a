package lint_test

import (
	"testing"

	"github.com/dcslib/dcs/internal/lint"
)

// TestRepoIsClean runs every analyzer over the whole repository, exactly as
// `go run ./cmd/dcsvet ./...` does — same LoadPackages + Analyze path — and
// fails on any finding. This makes the static-analysis gate part of
// `go test ./...`: a change cannot pass the test suite while violating a
// dcsvet invariant.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis is not short")
	}
	targets, err := lint.LoadPackages("../..", nil)
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := lint.Analyze(targets, lint.All)
	if err != nil {
		t.Fatalf("analyzing repo: %v", err)
	}
	for _, d := range diags {
		t.Errorf("dcsvet: %s", d)
	}
}
