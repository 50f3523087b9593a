package lint

// All is the suite cmd/dcsvet composes, in reporting order: the three
// invariant checks of the original suite, then ctxflow, the interprocedural
// analyzer added with driver v2.
var All = []*Analyzer{Loopcheck, Floatdet, Guardedby, Ctxflow}
