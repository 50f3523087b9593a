// Package runstate mirrors the real one's constructor: a State derived from
// a context, never cancelled when the context is nil.
package runstate

import "context"

type State struct{ done <-chan struct{} }

func New(ctx context.Context) *State {
	if ctx == nil {
		return &State{}
	}
	return &State{done: ctx.Done()}
}
