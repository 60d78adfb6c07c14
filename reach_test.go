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
	"norman/internal/filter.Ether":      "the ethertype matcher's constructor, the counterpart of Proto and Port",
	"norman/internal/filter.Ports":      "the port-range matcher's constructor, the counterpart of Port",
}

// TestEveryExportHasACaller: every exported package-level func and type under
// internal/ is referenced by some non-test file — qualified from another
// package, or by name in its own — so no capability survives on its own unit
// tests alone. A name that only tests use is either deleted or listed in
// reachAllowed with the reason it stays.
func TestEveryExportHasACaller(t *testing.T) {
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	var files []file
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
		files = append(files, file{pkg: path.Join("norman", filepath.ToSlash(filepath.Dir(p))), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

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
		imports := map[string]string{} // local name → import path
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
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
