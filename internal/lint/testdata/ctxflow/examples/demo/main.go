// Every package main is a binary entry point, not only those under cmd/:
// ctxflow skips it wherever it lives.
package main

import "context"

func main() {
	run(context.Background())
}

func run(ctx context.Context) { _ = ctx }
