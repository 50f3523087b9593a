package lint_test

import (
	"path/filepath"
	"testing"

	"github.com/dcslib/dcs/internal/lint"
)

// TestRepoIsClean runs every analyzer over the whole repository, exactly as
// `go run ./cmd/dcsvet ./...` does — same LoadPackages + Analyze path, same
// baseline — and fails on any failing finding. This makes the
// static-analysis gate part of `go test ./...`: a change cannot pass the
// test suite while violating a dcsvet invariant.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis is not short")
	}
	root := "../.."
	targets, err := lint.LoadPackages(root, nil)
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := lint.Analyze(targets, lint.All)
	if err != nil {
		t.Fatalf("analyzing repo: %v", err)
	}
	base, err := lint.ReadBaseline(filepath.Join(root, "lint.baseline.json"))
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	failing, baselined := lint.ApplyBaseline(diags, base, root)
	for _, d := range failing {
		t.Errorf("dcsvet: %s", d)
	}
	t.Logf("dcsvet: %d baselined warn finding(s)", len(baselined))
}
