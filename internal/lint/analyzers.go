package lint

// All is the suite cmd/dcsvet composes, in reporting order: the four
// invariant checks of the original suite, then leakcheck and ctxflow, the
// interprocedural analyzers added with driver v2.
var All = []*Analyzer{Loopcheck, Backedwrite, Floatdet, Guardedby, Leakcheck, Ctxflow}
