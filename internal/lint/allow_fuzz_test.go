package lint

import (
	"strings"
	"testing"
)

// FuzzParseAllowDirective hardens the //lint:allow parser against hostile
// comment text: multi-directive lines, CRLF remnants, unicode dashes where
// the -- separator belongs, glued prefixes, empty reasons. Invariants:
//
//   - not-a-directive (ok=false) returns a zero value;
//   - a policy problem never half-parses (analyzer and reason stay empty);
//   - an accepted directive has a lowercase-ASCII analyzer name and a
//     trimmed, non-empty reason;
//   - re-rendering an accepted directive in canonical form reparses to the
//     identical directive.
func FuzzParseAllowDirective(f *testing.F) {
	seeds := []string{
		"//lint:allow loopcheck -- bounded by the candidate set",
		"//lint:allow loopcheck --",
		"//lint:allow loopcheck -- ",
		"//lint:allow -- no name",
		"//lint:allow two names -- reason",
		"//lint:allowance keep going",
		"//lint:allow",
		"//lint:allow ctxflow -- first // want \"second\"",
		"//lint:allow ctxflow -- reason //lint:allow guardedby -- другой",
		"//lint:allow loop–check -- unicode dash in the name",
		"//lint:allow loopcheck — em-dash instead of the separator",
		"//lint:allow loopcheck -- reason\r",
		"//lint:allow\tloopcheck\t--\ttabs everywhere",
		"//lint:allow LOOPCHECK -- uppercase name",
		"//lint:allow loopcheck--glued -- reason",
		"//lint:allow   -- non-breaking-space name",
		"//lint:allow a -- b -- c",
		"// lint:allow loopcheck -- spaced prefix is not a directive",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, ok := parseAllowDirective(text)
		if !ok {
			if d != (allowDirective{}) {
				t.Fatalf("ok=false must return a zero directive, got %+v", d)
			}
			return
		}
		if d.problem != "" {
			if d.analyzer != "" || d.reason != "" {
				t.Fatalf("a problem directive must not half-parse: %+v", d)
			}
			return
		}
		if !isAnalyzerName(d.analyzer) {
			t.Fatalf("accepted analyzer name %q is not lowercase ASCII", d.analyzer)
		}
		if d.reason == "" || d.reason != strings.TrimSpace(d.reason) {
			t.Fatalf("accepted reason %q is not trimmed and non-empty", d.reason)
		}
		canon := "//lint:allow " + d.analyzer + " -- " + d.reason
		rd, rok := parseAllowDirective(canon)
		if !rok || rd != d {
			t.Fatalf("canonical form %q did not round-trip: got %+v (ok=%v), want %+v", canon, rd, rok, d)
		}
	})
}
