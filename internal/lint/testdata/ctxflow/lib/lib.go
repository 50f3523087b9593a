// Package lib is library code: manufacturing contexts is banned, and a
// function holding a ctx must hand it to the run state it builds.
package lib

import (
	"context"

	"ctxf.example/internal/runstate"
)

func manufactured(n int) int {
	_ = context.Background() // want "context.Background\\(\\) in library code"
	return n
}

func todo(n int) int {
	_ = context.TODO() // want "context.TODO\\(\\) in library code"
	return n
}

func discards(ctx context.Context) *runstate.State {
	return runstate.New(nil) // want "ctx is in scope but runstate.New\\(nil\\)"
}

func threads(ctx context.Context) *runstate.State {
	return runstate.New(ctx)
}

// With no ctx in scope there is nothing to thread.
func noCtx() *runstate.State {
	return runstate.New(nil)
}

// shim mirrors a documented never-cancelled entry point: the function-level
// directive suppresses the whole body.
//
//lint:allow ctxflow -- fixture shim: never-cancelled root context by contract
func shim() *runstate.State {
	return runstate.New(context.Background())
}
