// Package dep declares the parameter type the dependent package receives.
// The retype test rewrites T's alias target between two analyses.
package dep

import "context"

type Ctx = context.Context

type T = int
