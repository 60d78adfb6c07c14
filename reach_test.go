package norman_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed are the exported internal names no non-test code references,
// each kept on purpose.
var reachAllowed = map[string]string{
	"norman/internal/sniff.ReadPcap":    "the pcap round-trip oracle: WritePcap's output must parse back",
	"norman/internal/experiments.RunE9": "the test suites' E9 entry; kopibench reaches E9 through the registry",
	"norman/internal/filter.Ports":      "the port-range matcher's constructor, the counterpart of Port",
}

// TestEveryExportHasACaller: every exported package-level func and type under
// internal/ is referenced by some non-test file — qualified from another
// package, or by name in its own — so no capability survives on its own unit
// tests alone. A name that only tests use is either deleted or listed in
// reachAllowed with the reason it stays.
func TestEveryExportHasACaller(t *testing.T) {
	files := parseProduct(t)

	declared := map[string]bool{} // "importpath.Name"
	used := map[string]bool{}
	for _, f := range files {
		decl := map[*ast.Ident]bool{} // type names at their declaration
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && strings.HasPrefix(f.pkg, "norman/internal/") {
					declared[f.pkg+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						decl[ts.Name] = true
						if ts.Name.IsExported() && strings.HasPrefix(f.pkg, "norman/internal/") {
							declared[f.pkg+"."+ts.Name.Name] = true
						}
					}
				}
			}
		}
		imports := f.imports()
		// visit records a selector on an import as a use of that package's
		// name, and any other identifier but a declaration's own name as a use
		// of that name in the file's package.
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false // Sel is a field or method, not a package-level name
			case *ast.FuncDecl:
				// Neither the name nor a method's receiver, which names the
				// method's own type, is a use.
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Field:
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				return false // the names are the fields' or parameters', not uses
			case *ast.Ident:
				if !decl[n] {
					used[f.pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var orphans []string
	for name := range declared {
		if !used[name] && reachAllowed[name] == "" {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("%s is exported but no non-test file references it: delete it, or allow it with a reason", name)
	}
	for name := range reachAllowed {
		if !declared[name] {
			t.Errorf("reachAllowed lists %s, which no longer exists", name)
		} else if used[name] {
			t.Errorf("reachAllowed lists %s, which non-test code now references", name)
		}
	}
}

// knobAllowed are the exported fields of internal *Config structs that no
// non-test code sets, each kept on purpose.
var knobAllowed = map[string]string{
	"norman/internal/overload.Config.MaxConnsPerTenant": "set by the chaos soak and the supervise tests; a constant would re-cut chaos.golden",
	"norman/internal/overload.Config.SampleEvery":       "set by the chaos soak and the supervise tests; a constant would re-cut chaos.golden",
	"norman/internal/overload.Config.EscalateAfter":     "set by the chaos soak and the supervise tests; a constant would re-cut chaos.golden",
	"norman/internal/overload.Config.ClearAfter":        "set by the chaos soak and the supervise tests; a constant would re-cut chaos.golden",
	"norman/internal/transport.Config.Window":           "calibrated into TestStreamTimerPendingBounded, which hits its bound exactly at 256 KiB",
	"norman/internal/ctl.DialConfig.Timeout":            "a deployment setting; the outage tests shorten it",
	"norman/internal/ctl.DialConfig.RequestTimeout":     "a deployment setting; the outage tests shorten it",
	"norman/internal/ctl.DialConfig.Retries":            "a deployment setting; the outage tests shorten it",
	"norman/internal/ctl.DialConfig.BackoffBase":        "a deployment setting; the outage tests shorten it",
	"norman/internal/ctl.DialConfig.BackoffMax":         "a deployment setting; the outage tests shorten it",
}

// TestEveryKnobHasASetter: every exported field of an exported *Config struct
// under internal/ is set by some non-test file — as a key of a composite
// literal of that type, or by a .Field = assignment outside the declaring
// package — so no option survives with one value that only its default
// gives it. A knob nothing sets is a constant, or listed in knobAllowed with
// the reason it stays.
func TestEveryKnobHasASetter(t *testing.T) {
	files := parseProduct(t)

	declared := map[string]string{} // "importpath.Type.Field" → declaring package
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "norman/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, sp := range gd.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							declared[f.pkg+"."+ts.Name.Name+"."+name.Name] = f.pkg
						}
					}
				}
			}
		}
	}

	set := map[string]bool{}          // "importpath.Type.Field"
	assigned := map[string][]string{} // field name → packages assigning .Field =
	for _, f := range files {
		imports := f.imports()
		// typeName resolves a type expression naming a struct to
		// "importpath.Type", or "" when it names none.
		typeName := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return f.pkg + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		// literal records the keys of a composite literal of type typ, and
		// of the literals nested in it whose element type is elided.
		var literal func(lit *ast.CompositeLit, typ ast.Expr)
		literal = func(lit *ast.CompositeLit, typ ast.Expr) {
			if lit.Type != nil {
				typ = lit.Type
			}
			var elem ast.Expr
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elem = tt.Elt
			case *ast.MapType:
				elem = tt.Value
			}
			if star, ok := elem.(*ast.StarExpr); ok {
				elem = star.X
			}
			name := typeName(typ)
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && name != "" {
						set[name+"."+key.Name] = true
					}
					el = kv.Value
				}
				if u, ok := el.(*ast.UnaryExpr); ok {
					el = u.X
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && elem != nil {
					literal(inner, elem)
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if n.Type != nil {
					literal(n, nil)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], f.pkg)
						}
					}
				}
			}
			return true
		})
	}

	var unset []string
	for knob, pkg := range declared {
		isSet := set[knob]
		for _, by := range assigned[knob[strings.LastIndexByte(knob, '.')+1:]] {
			isSet = isSet || by != pkg
		}
		if !isSet && knobAllowed[knob] == "" {
			unset = append(unset, knob)
		}
		if isSet && knobAllowed[knob] != "" {
			t.Errorf("knobAllowed lists %s, which non-test code now sets", knob)
		}
	}
	sort.Strings(unset)
	for _, knob := range unset {
		t.Errorf("%s is a knob no non-test file sets: make it a constant, or allow it with a reason", knob)
	}
	for knob := range knobAllowed {
		if declared[knob] == "" {
			t.Errorf("knobAllowed lists %s, which no longer exists", knob)
		}
	}
}

// srcFile is one parsed non-test Go file of the module.
type srcFile struct {
	pkg string // import path of the file's package
	ast *ast.File
}

// imports maps the file's local package names to their import paths.
func (f srcFile) imports() map[string]string {
	imports := map[string]string{}
	for _, imp := range f.ast.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	return imports
}

// parseProduct parses every non-test Go file of the module, testdata and
// dot-directories aside.
func parseProduct(t *testing.T) []srcFile {
	t.Helper()
	var files []srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{pkg: path.Join("norman", filepath.ToSlash(filepath.Dir(p))), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
