package lint

import (
	"go/ast"
	"go/types"
)

// DeadCode flags an unexported function or method that nothing in its
// package's non-test code references — code orphaned by a refactor
// that would otherwise linger unnoticed. The rule is deliberately
// narrow: a reference from inside the function's own body (recursion)
// does not count, and an unexported method that satisfies an interface
// declared in the package is exempt, since it can be reached through
// the interface without naming it. init, main, and blank functions are
// never flagged.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "no unexported function or method without a reference in its package",
	Run:  runDeadCode,
}

func runDeadCode(pkg *Package) []Diagnostic {
	// Every object some identifier outside its own declaration names.
	used := make(map[types.Object]bool)
	for id, obj := range pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if decl := fn.Scope(); decl != nil && decl.Pos() <= id.Pos() && id.Pos() < decl.End() {
			continue // recursion
		}
		used[fn] = true
	}
	ifaces := packageInterfaces(pkg)

	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.IsExported() {
				continue
			}
			switch fd.Name.Name {
			case "_", "init", "main":
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || used[fn] || satisfiesInterface(fn, ifaces) {
				continue
			}
			kind := "function"
			if fd.Recv != nil {
				kind = "method"
			}
			out = append(out, Diagnostic{
				Pos:     pkg.Fset.Position(fd.Name.Pos()),
				Rule:    "deadcode",
				Message: "unexported " + kind + " " + fd.Name.Name + " has no reference in its package",
			})
		}
	}
	return out
}

// packageInterfaces collects every interface type the package declares
// or spells out as a literal.
func packageInterfaces(pkg *Package) []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] && it.NumMethods() > 0 {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, obj := range pkg.Info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	for _, tv := range pkg.Info.Types {
		add(tv.Type)
	}
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver
// type (or a pointer to it) implements an interface that has a method
// of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}
