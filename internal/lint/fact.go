// Facts: typed information analyzers export on functions and objects of one
// package and import while analyzing its dependents — the mechanism that
// turns the per-package passes into an interprocedural, cross-package
// analysis. The design mirrors golang.org/x/tools go/analysis facts on the
// standard library alone:
//
//   - A fact type is a pointer to a struct implementing Fact.
//   - Pass.ExportObjectFact attaches a fact to an object of the package
//     under analysis; Pass.ImportObjectFact retrieves the fact attached to
//     any object, including objects of already-analyzed dependency packages.
//   - The driver analyzes packages in dependency order, so by the time a
//     package is analyzed every fact of its (in-run) dependencies exists.
//
// Identity across the source/export-data boundary: when package B imports
// package A, go/types materializes A's objects from compiled export data —
// different *types.Object values than the ones seen when A itself was
// analyzed from source. Facts are therefore keyed by a stable string path
// (package path plus "Name", "Recv.Name" for methods, "Struct.Field" for
// fields) computed identically on both sides, rather than by object pointer.
//
// Facts live only in memory for the duration of one Analyze call: every run
// type-checks and analyzes every package afresh, so no verdict can outlive
// the types it was computed from.
package lint

import (
	"go/types"
	"reflect"
)

// A Fact is analyzer-specific information attached to an object, exported
// during the analysis of the object's package and importable during the
// analysis of dependent packages. Implementations must be pointers to
// structs.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// factKey identifies one stored fact: the exporting analyzer, the object's
// package and stable in-package path, and the fact's concrete type name
// (one fact of each type per object per analyzer, like go/analysis).
type factKey struct {
	analyzer string
	pkg      string
	obj      string
	typ      string
}

// factStore holds every fact exported during one driver run.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: map[factKey]Fact{}}
}

// objKey computes the stable in-package path of obj: "Name" for
// package-level objects, "Recv.Name" for methods, "Struct.Field" for struct
// fields of package-level named types. Objects without a stable path (e.g.
// fields of anonymous struct types, locals) are not fact-addressable.
func objKey(obj types.Object) (string, bool) {
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + o.Name(), true
			}
			return "", false
		}
		return o.Name(), true
	case *types.Var:
		if o.IsField() {
			if owner := fieldOwnerName(o); owner != "" {
				return owner + "." + o.Name(), true
			}
			return "", false
		}
		if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return o.Name(), true
		}
		return "", false
	case *types.TypeName:
		return o.Name(), true
	}
	return "", false
}

// fieldOwnerName finds the package-level named struct type owning field v,
// by scanning the package scope (go/types has no owner pointer on fields).
// Works identically for source-checked and export-data packages.
func fieldOwnerName(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}

func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// ExportObjectFact attaches fact to obj, which must belong to the package
// under analysis. The fact becomes visible to ImportObjectFact in this and
// every later pass of the run.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	key, ok := objKey(obj)
	if !ok {
		return
	}
	p.facts.m[factKey{
		analyzer: p.Analyzer.Name,
		pkg:      obj.Pkg().Path(),
		obj:      key,
		typ:      factTypeName(fact),
	}] = fact
}

// ImportObjectFact copies the fact of *fact's concrete type attached to obj
// by this analyzer (in this package or any already-analyzed dependency)
// into fact, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := objKey(obj)
	if !ok {
		return false
	}
	stored, ok := p.facts.m[factKey{
		analyzer: p.Analyzer.Name,
		pkg:      obj.Pkg().Path(),
		obj:      key,
		typ:      factTypeName(fact),
	}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(fact).Elem()
	sv := reflect.ValueOf(stored).Elem()
	if dv.Type() != sv.Type() {
		return false
	}
	dv.Set(sv)
	return true
}
