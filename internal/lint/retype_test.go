package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dcslib/dcs/internal/lint"
)

// TestRetypedDependencyIsReanalyzed pins that no verdict is reused across
// runs: a dependency changes only the target of its alias T (int →
// context.Context), the dependent package's source is untouched, and the
// second run must see the new type and report the now severed ctx.
func TestRetypedDependencyIsReanalyzed(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/retype")); err != nil {
		t.Fatal(err)
	}
	run := func() []lint.Diagnostic {
		t.Helper()
		targets, err := lint.LoadPackages(dir, nil)
		if err != nil {
			t.Fatalf("loading fixture: %v", err)
		}
		diags, err := lint.Analyze(targets, lint.All)
		if err != nil {
			t.Fatalf("analyzing fixture: %v", err)
		}
		return diags
	}

	if diags := run(); len(diags) != 0 {
		t.Fatalf("integer parameter: want no findings, got %v", diags)
	}
	src := filepath.Join(dir, "dep", "dep.go")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	retyped := strings.Replace(string(data), "type T = int", "type T = Ctx", 1)
	if err := os.WriteFile(src, []byte(retyped), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := run()
	if len(diags) != 1 || diags[0].Analyzer != "ctxflow" || filepath.Base(diags[0].Pos.Filename) != "core.go" {
		t.Fatalf("context parameter: want one ctxflow finding in core.go, got %v", diags)
	}
}
