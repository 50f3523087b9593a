// Package core builds an uncancellable run state. That is clean while its
// parameter dep.T is an integer and a ctxflow finding once T becomes a
// context, although this file never changes.
package core

import (
	"retype.example/dep"
	"retype.example/internal/runstate"
)

func Solve(t dep.T) *runstate.State {
	_ = t
	return runstate.New(nil)
}
