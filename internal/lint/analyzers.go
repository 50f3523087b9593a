package lint

// All is the suite cmd/dcsvet composes, in reporting order: the two
// invariant checks of the original suite that stayed, then ctxflow.
var All = []*Analyzer{Loopcheck, Guardedby, Ctxflow}
