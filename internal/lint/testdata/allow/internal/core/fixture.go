// Fixture for the //lint:allow policy: a well-formed allow suppresses, a
// malformed one is itself a finding and suppresses nothing.
package core

func converged() bool { return true }

// A reasoned allow on the line above the finding suppresses it.
func allowedAbove() {
	//lint:allow loopcheck -- fixture: bounded by protocol, never graph-scale
	for !converged() {
	}
}

// A reasoned allow trailing the flagged line works too.
func allowedTrailing() {
	for !converged() { //lint:allow loopcheck -- fixture: bounded by protocol, never graph-scale
	}
}

// Missing reason: the allow is rejected AND the finding it hoped to cover
// still fires.
func missingReason() {
	//lint:allow loopcheck // want "missing its mandatory reason"
	for !converged() { // want "no .runstate.State in scope"
	}
}

// Unknown analyzer name.
func unknownAnalyzer() {
	//lint:allow speling -- not a real analyzer // want "unknown analyzer"
	for !converged() { // want "no .runstate.State in scope"
	}
}

// Multiple names are rejected: one allow, one analyzer, one reason.
func twoNames() {
	//lint:allow loopcheck ctxflow -- greedy // want "single analyzer name"
	for !converged() { // want "no .runstate.State in scope"
	}
}

// An allow does not leak past the next line.
func tooFarAway() {
	//lint:allow loopcheck -- fixture: this comment is two lines up

	for !converged() { // want "no .runstate.State in scope"
	}
}
