package core

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// orderFree is the annotation that declares a range over a map independent
// of Go's randomized iteration order.
const orderFree = "// order-free: "

// TestNoMapOrder: the model draws no result from map iteration order.
// Every range over a map-typed expression in non-test internal/ code is
// either converted to an ordered structure or carries an
// `// order-free: <reason>` comment on its own line or the line above.
// The code is type-checked with the standard library's source importer, so
// a range over a named map type or a map-valued call counts too.
func TestNoMapOrder(t *testing.T) {
	if raceBuild() {
		// About 5 s plain and 40 s under the race detector, which has
		// nothing to find in a static check that `go test` already runs.
		t.Skip("static source check: run without -race")
	}
	root := filepath.Join("..", "..")
	goMod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	_, module, _ := strings.Cut(string(goMod), "module ")
	module, _, _ = strings.Cut(module, "\n")
	module = strings.TrimSpace(module)

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	ranges, annotated := 0, 0
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == module || strings.HasPrefix(path, module+"/") {
			return check(path)
		}
		return std.Import(path)
	})
	// check type-checks the module package at path (once) and lists its
	// ranges over maps.
	check = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module)))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		if !strings.HasPrefix(path, module+"/internal/") {
			return pkg, nil
		}
		for _, f := range files {
			annotations := map[int]bool{} // lines carrying the annotation
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, orderFree) && len(strings.TrimSpace(c.Text[len(orderFree):])) > 0 {
						annotations[fset.Position(c.Slash).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					return true
				}
				ranges++
				at := fset.Position(rs.For)
				if annotations[at.Line] || annotations[at.Line-1] {
					annotated++
				} else {
					rel, _ := filepath.Rel(root, at.Filename)
					t.Errorf("%s:%d: range over a map (%s) without an %q comment: iterate an ordered structure, or say why the order cannot matter",
						filepath.ToSlash(rel), at.Line, info.TypeOf(rs.X), orderFree+"<reason>")
				}
				return true
			})
		}
		return pkg, nil
	}

	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		_, err = check(module + "/" + filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ranges == 0 {
		t.Fatal("found no range over a map at all: the walk or the type check went wrong")
	}
	t.Logf("%d ranges over maps in internal/, %d annotated order-free", ranges, annotated)
}

// raceBuild reports whether this test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
