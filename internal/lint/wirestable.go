package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// wireDirective marks a struct as part of the canonical wire surface:
// encoded or decoded by internal/canon (the catalog request and its
// parameter schemas, whose bytes are the stackd cache key). It rides
// directly above the type declaration:
//
//	//canon:wire
//	type requestWire struct { ... }
//
// The marker is the registry WireStable pins exhaustiveness against.
const wireDirective = "//canon:wire"

// WireStable keeps the canon wire surface byte-stable. It discovers
// the wire roots statically — named struct arguments at canon
// Marshal/Unmarshal/Hash call sites, and the &T{} values produced by
// core.Experiment NewParams constructors (the catalog's parameter
// schemas, which travel as request params) — closes over their
// struct-typed fields, and enforces on every reachable struct
// declared in the package:
//
//   - it carries the //canon:wire marker, so the wire surface is an
//     explicit, reviewable registry (and a marked struct nothing
//     encodes anymore is flagged as stale);
//   - no unexported fields: encoding/json drops them silently, so a
//     reader would accept bytes missing real state;
//   - no interface, chan, or func fields: their encodings are
//     unstable or impossible;
//   - map fields only with string or integer keys (or a key type
//     providing MarshalText): other keys fail or drift at runtime.
//
// Types providing their own MarshalJSON (json.RawMessage, time.Time)
// are self-encoding: accepted and not traversed.
var WireStable = &Analyzer{
	Name: "wirestable",
	Doc: "structs on the canon wire surface are marked //canon:wire, " +
		"keep declaration-order/omit-default stability, and hide no state " +
		"in unexported or unencodable fields",
	Run: runWireStable,
}

func runWireStable(pass *Pass) {
	roots := wireRoots(pass)
	if len(roots) == 0 {
		return
	}
	marked, specs := wireMarkers(pass)

	// Transitive closure over struct-typed fields, package-local.
	reachable := map[*types.Named]bool{}
	work := roots
	for len(work) > 0 {
		named := work[0]
		work = work[1:]
		if reachable[named] {
			continue
		}
		reachable[named] = true
		if named.Obj().Pkg() != pass.Types() {
			continue // another package's type: checked when that package is analyzed
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		spec := specs[named.Obj().Name()]
		if !marked[named.Obj().Name()] && spec != nil {
			pass.Reportf(spec.Name.Pos(),
				"type %s is encoded by internal/canon but not marked %s; add the marker to register it on the wire surface",
				named.Obj().Name(), wireDirective)
		}
		work = append(work, checkWireStruct(pass, named, st, spec)...)
	}

	// Exhaustiveness: a marked type the closure never reached is a
	// stale registry entry.
	names := make([]string, 0, len(marked))
	for name := range marked {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := specs[name]
		if spec == nil {
			continue
		}
		obj := pass.Info().Defs[spec.Name]
		if obj == nil {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok || reachable[named] {
			continue
		}
		pass.Reportf(spec.Name.Pos(),
			"type %s is marked %s but is not reachable from any canon encode/decode site; remove the stale marker or wire the type in",
			name, wireDirective)
	}
}

// checkWireStruct validates one reachable struct's fields and returns
// the named structs its fields lead to.
func checkWireStruct(pass *Pass, named *types.Named, st *types.Struct, spec *ast.TypeSpec) []*types.Named {
	var next []*types.Named
	pos := named.Obj().Pos()
	if spec != nil {
		pos = spec.Name.Pos()
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			pass.Reportf(pos,
				"wire struct %s has unexported field %s: encoding/json drops it silently, so the wire form hides state",
				named.Obj().Name(), f.Name())
			continue
		}
		next = append(next, checkWireFieldType(pass, pos, named.Obj().Name(), f.Name(), f.Type())...)
	}
	return next
}

// checkWireFieldType validates one field type, returning any named
// structs to add to the closure.
func checkWireFieldType(pass *Pass, pos token.Pos, owner, field string, t types.Type) []*types.Named {
	if hasMarshalMethod(t, "MarshalJSON") {
		return nil // self-encoding: stable by its own contract
	}
	switch u := t.(type) {
	case *types.Pointer:
		return checkWireFieldType(pass, pos, owner, field, u.Elem())
	case *types.Slice:
		return checkWireFieldType(pass, pos, owner, field, u.Elem())
	case *types.Array:
		return checkWireFieldType(pass, pos, owner, field, u.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			return []*types.Named{named}
		}
		return checkWireFieldType(pass, pos, owner, field, named.Underlying())
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsComplex != 0 {
			pass.Reportf(pos, "wire struct %s field %s has complex type %s, which JSON cannot encode",
				owner, field, t)
		}
		return nil
	case *types.Struct:
		// Anonymous struct: validate inline.
		var next []*types.Named
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() {
				pass.Reportf(pos,
					"wire struct %s field %s embeds an unexported field %s in an anonymous struct",
					owner, field, f.Name())
				continue
			}
			next = append(next, checkWireFieldType(pass, pos, owner, field+"."+f.Name(), f.Type())...)
		}
		return next
	case *types.Map:
		if !stableMapKey(u.Key()) {
			pass.Reportf(pos,
				"wire struct %s field %s is a map with key type %s; wire maps need string/integer keys (or MarshalText) for a stable encoding",
				owner, field, u.Key())
		}
		return checkWireFieldType(pass, pos, owner, field, u.Elem())
	case *types.Interface:
		pass.Reportf(pos,
			"wire struct %s field %s is an interface; its encoding depends on the dynamic type and is not wire-stable",
			owner, field)
	case *types.Chan:
		pass.Reportf(pos, "wire struct %s field %s is a channel, which cannot be encoded", owner, field)
	case *types.Signature:
		pass.Reportf(pos, "wire struct %s field %s is a function, which cannot be encoded", owner, field)
	}
	return nil
}

// stableMapKey reports whether k encodes deterministically as a JSON
// object key.
func stableMapKey(k types.Type) bool {
	if hasMarshalMethod(k, "MarshalText") {
		return true
	}
	basic, ok := k.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&(types.IsString|types.IsInteger) != 0
}

// hasMarshalMethod reports whether t (or *t) provides the named
// marshal method.
func hasMarshalMethod(t types.Type, name string) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, name)
		if _, ok := obj.(*types.Func); ok {
			return true
		}
	}
	return false
}

// wireRoots finds the named structs entering the canon codec in this
// package: arguments at canon call sites (pointers unwrapped) and
// composite literals returned by Experiment NewParams constructors.
func wireRoots(pass *Pass) []*types.Named {
	var roots []*types.Named
	add := func(t types.Type) {
		if t == nil {
			return
		}
		named := namedOf(t)
		if named == nil {
			return
		}
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			roots = append(roots, named)
		}
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isCanonCall(pass, n) {
					return true
				}
				for _, arg := range n.Args {
					e := arg
					if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.AND {
						e = un.X
					}
					add(pass.Info().TypeOf(e))
				}
			case *ast.CompositeLit:
				if !isExperimentLit(pass, n) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "NewParams" {
						continue
					}
					fl, ok := kv.Value.(*ast.FuncLit)
					if !ok {
						continue
					}
					ast.Inspect(fl.Body, func(m ast.Node) bool {
						if cl, ok := m.(*ast.CompositeLit); ok {
							add(pass.Info().TypeOf(cl))
						}
						return true
					})
				}
			}
			return true
		})
	}
	return roots
}

// wireMarkers scans the package's type declarations for //canon:wire
// directives, returning the marked type names and every struct
// TypeSpec by name. Directive comments are excluded from
// CommentGroup.Text, so the raw comment list is scanned.
func wireMarkers(pass *Pass) (marked map[string]bool, specs map[string]*ast.TypeSpec) {
	marked = map[string]bool{}
	specs = map[string]*ast.TypeSpec{}
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			declMarked := hasWireDirective(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				specs[ts.Name.Name] = ts
				if declMarked || hasWireDirective(ts.Doc) || hasWireDirective(ts.Comment) {
					marked[ts.Name.Name] = true
				}
			}
		}
	}
	return marked, specs
}

func hasWireDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == wireDirective {
			return true
		}
	}
	return false
}

// isCanonCall reports whether call invokes a struct-encoding function
// of a package named canon (Marshal, Unmarshal, Hash — HashBytes
// takes already-encoded bytes). Matching by package name lets
// fixtures model the real internal/canon.
func isCanonCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Marshal", "Unmarshal", "Hash":
	default:
		return false
	}
	obj := pass.Info().Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "canon"
}

// isExperimentLit reports whether lit constructs an Experiment from a
// package named core.
func isExperimentLit(pass *Pass, lit *ast.CompositeLit) bool {
	named := namedOf(pass.Info().TypeOf(lit))
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Experiment" && obj.Pkg() != nil && obj.Pkg().Name() == "core"
}
