package pymini

// builtins are names that never count as cross-cell references.
var builtins = map[string]bool{
	"print": true, "len": true, "range": true, "sum": true, "min": true,
	"max": true, "abs": true, "round": true, "sorted": true, "list": true,
	"dict": true, "set": true, "tuple": true, "str": true, "int": true,
	"float": true, "bool": true, "enumerate": true, "zip": true, "map": true,
	"filter": true, "open": true, "type": true, "isinstance": true,
	"Exception": true, "ValueError": true, "KeyError": true, "display": true,
}

// GlobalDefs returns the names a cell introduces into the notebook's
// global namespace, in first-definition order: top-level assignment
// targets, function and class definitions, and import bindings. Local
// variables inside function bodies are excluded (Algorithm 3 explicitly
// skips them).
func GlobalDefs(m *Module) []string {
	var out []string
	seen := map[string]bool{}
	for _, name := range defsInBlock(m.Stmts) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// defsInBlock collects the assignments and defs of a block that runs in the
// global scope — the cell itself, and the if/for bodies nested in it — top-
// level loop variables included, as they leak into the namespace in Python.
func defsInBlock(stmts []Stmt) []string {
	var out []string
	for _, s := range stmts {
		switch x := s.(type) {
		case *Assign:
			out = append(out, x.Targets...)
		case *FuncDef:
			out = append(out, x.Name)
		case *ClassDef:
			out = append(out, x.Name)
		case *Import:
			out = append(out, x.Bound...)
		case *For:
			out = append(out, x.Vars...)
			out = append(out, defsInBlock(x.Body)...)
		case *Cond:
			for _, b := range x.Bodies {
				out = append(out, defsInBlock(b)...)
			}
		}
	}
	return out
}

// ExternalRefs returns the names a cell reads that it did not define
// earlier in the same cell — the references that create inter-cell edges.
// Builtins and names bound by imports/defs/params in scope are excluded.
func ExternalRefs(m *Module) []string {
	defined := map[string]bool{}
	var external []string
	seen := map[string]bool{}
	ref := func(name string) {
		if name == "" || builtins[name] || defined[name] || seen[name] {
			return
		}
		seen[name] = true
		external = append(external, name)
	}
	var walk func(stmts []Stmt, local map[string]bool)
	walk = func(stmts []Stmt, local map[string]bool) {
		isDefined := func(n string) bool { return defined[n] || (local != nil && local[n]) }
		define := func(n string) {
			if local != nil {
				local[n] = true
			} else {
				defined[n] = true
			}
		}
		for _, s := range stmts {
			switch x := s.(type) {
			case *Assign:
				for _, r := range x.Refs {
					if !isDefined(r) {
						ref(r)
					}
				}
				// Mutating a subscript/attribute requires the base to
				// already exist; it was handled via Refs above.
				for _, t := range x.Targets {
					define(t)
				}
			case *Import:
				for _, b := range x.Bound {
					define(b)
				}
			case *FuncDef:
				define(x.Name)
				// Function bodies get their own scope seeded with params;
				// free variables inside still reference the outer scope.
				inner := map[string]bool{}
				if local != nil {
					for k := range local {
						inner[k] = true
					}
				}
				for _, p := range x.Params {
					inner[p] = true
				}
				walk(x.Body, inner)
			case *ClassDef:
				define(x.Name)
				inner := map[string]bool{}
				walk(x.Body, inner)
			case *For:
				for _, r := range x.Refs {
					if !isDefined(r) {
						ref(r)
					}
				}
				for _, v := range x.Vars {
					define(v)
				}
				walk(x.Body, local)
			case *Cond:
				for _, r := range x.Refs {
					if !isDefined(r) {
						ref(r)
					}
				}
				for _, b := range x.Bodies {
					walk(b, local)
				}
			case *ExprStmt:
				for _, r := range x.Refs {
					if !isDefined(r) {
						ref(r)
					}
				}
			}
		}
	}
	walk(m.Stmts, nil)
	return external
}
