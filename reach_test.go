package norman_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed are the exported internal names no non-test code references,
// each kept on purpose.
var reachAllowed = map[string]string{
	"norman/internal/sniff.ReadPcap": "the pcap round-trip oracle: WritePcap's output must parse back",
	"norman/internal/filter.Ports":   "the port-range matcher's constructor, the counterpart of Port",
}

// TestEveryExportHasACaller: every exported package-level func and type under
// internal/ is referenced by some non-test file — qualified from another
// package, or by name in its own — so no capability survives on its own unit
// tests alone. A name that only tests use is either deleted or listed in
// reachAllowed with the reason it stays.
func TestEveryExportHasACaller(t *testing.T) {
	files := parseTree(t, token.NewFileSet(), ".", "norman")

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
// package whose selector's base has that type — so no option survives with
// one value that only its default gives it. A knob nothing sets is a
// constant, or listed in knobAllowed with the reason it stays.
func TestEveryKnobHasASetter(t *testing.T) {
	knobs := knobsSet(t, ".", "norman")
	var unset []string
	for knob, isSet := range knobs {
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
		if _, ok := knobs[knob]; !ok {
			t.Errorf("knobAllowed lists %s, which no longer exists", knob)
		}
	}
}

// TestKnobLawReadsTypes holds the knob law to types, not names: in the
// fixture module under testdata/knobs a command assigns Power on a struct of
// its own, which must not count as setting radio.Config.Power, while its
// assignment to a real radio.Config's Band does count.
func TestKnobLawReadsTypes(t *testing.T) {
	got := knobsSet(t, filepath.Join("testdata", "knobs"), "knobs")
	want := map[string]bool{
		"knobs/internal/radio.Config.Band":  true,
		"knobs/internal/radio.Config.Power": false,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("knobs = %v, want %v", got, want)
	}
}

// knobsSet type-checks the non-test packages under root, whose import paths
// begin with module, and reports every knob — an exported field of an
// exported *Config struct under module/internal/ — with whether some file
// sets it.
func knobsSet(t *testing.T, root, module string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	files := parseTree(t, fset, root, module)
	imp := &treeImporter{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	for _, f := range files {
		imp.files[f.pkg] = append(imp.files[f.pkg], f.ast)
	}

	type knob struct{ name, pkg string }
	fields := map[*types.Var]knob{}
	set := map[string]bool{}
	for p := range imp.files {
		pkg, err := imp.Import(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fld := st.Field(i); fld.Exported() {
					k := knob{p + "." + name + "." + fld.Name(), p}
					fields[fld] = k
					set[k.name] = false
				}
			}
		}
	}
	field := func(id *ast.Ident) (knob, bool) {
		v, _ := imp.info.Uses[id].(*types.Var)
		k, ok := fields[v]
		return k, ok
	}
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					if k, ok := field(key); ok {
						set[k.name] = true
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN {
					break
				}
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if k, ok := field(sel.Sel); ok && k.pkg != f.pkg {
							set[k.name] = true
						}
					}
				}
			}
			return true
		})
	}
	return set
}

// treeImporter type-checks a parsed tree's packages on demand, each once, and
// takes every other import from the toolchain's export data.
type treeImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (im *treeImporter) Import(p string) (*types.Package, error) {
	if pkg := im.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	files, ok := im.files[p]
	if !ok {
		return im.std.Import(p)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p, im.fset, files, im.info)
	im.pkgs[p] = pkg
	return pkg, err
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

// parseTree parses every non-test Go file under root, testdata and
// dot-directories aside, into packages whose import paths are module joined
// with their directory under root.
func parseTree(t *testing.T, fset *token.FileSet, root, module string) []srcFile {
	t.Helper()
	var files []srcFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, srcFile{pkg: path.Join(module, filepath.ToSlash(rel)), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
