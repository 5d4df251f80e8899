package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// partBRows returns the table rows of docs/FIDELITY.md's Part B, each
// split into trimmed cells.
func partBRows(t *testing.T) [][]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "FIDELITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, partB, ok := strings.Cut(string(doc), "\n## Part B")
	if !ok {
		t.Fatal("docs/FIDELITY.md has no Part B")
	}
	var rows [][]string
	for _, line := range strings.Split(partB, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// TestFidelityCoversEveryDirectory: every package under internal/, every
// tool under cmd/ and every example has a Part B row naming its consumer,
// so a new directory cannot arrive without one.
func TestFidelityCoversEveryDirectory(t *testing.T) {
	have := map[string]bool{}
	for _, row := range partBRows(t) {
		have[strings.Trim(row[0], "`")] = true
	}
	root := filepath.Join("..", "..")
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || d.Name() == "testdata" {
				return err
			}
			if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) == 0 {
				return nil
			}
			rel, _ := filepath.Rel(root, path)
			if dir := filepath.ToSlash(rel); !have[dir] {
				t.Errorf("docs/FIDELITY.md Part B has no row for %s: name what consumes it", dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// definedFlags parses main.go of every tool under cmd/ and returns, per
// tool directory ("cmd/replay"), the names of the flags it defines through
// fs.X or flag.X for X in String, Int, Int64, Float64, Bool, Duration.
func definedFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	kinds := map[string]bool{"String": true, "Int": true, "Int64": true, "Float64": true, "Bool": true, "Duration": true}
	mains, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found: %v", err)
	}
	tools := map[string]map[string]bool{}
	for _, path := range mains {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		tool := "cmd/" + filepath.Base(filepath.Dir(path))
		tools[tool] = map[string]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !kinds[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || (x.Name != "fs" && x.Name != "flag") {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				tools[tool][name] = true
			}
			return true
		})
	}
	return tools
}

// TestFidelityNamesEveryFlag holds Part B3 to the flags the tools define:
// every flag a cmd/*/main.go defines has a B3 row for its tool, and every
// flag a B3 row names is defined by that tool. So no flag arrives without
// a consumer named in FIDELITY.md, and none leaves with its row behind
// (deleting replay's -shards while keeping its row fails here).
func TestFidelityNamesEveryFlag(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "FIDELITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, b3, ok := strings.Cut(string(doc), "\n### B3.")
	if !ok {
		t.Fatal("docs/FIDELITY.md has no B3 section")
	}
	b3, _, _ = strings.Cut(b3, "\n### ")
	flagName := regexp.MustCompile("`-([a-z0-9-]+)`")
	documented := map[string]map[string]bool{}
	for _, line := range strings.Split(b3, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 2 {
			continue
		}
		tool := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if !strings.HasPrefix(tool, "cmd/") {
			continue
		}
		if documented[tool] == nil {
			documented[tool] = map[string]bool{}
		}
		for _, m := range flagName.FindAllStringSubmatch(cells[1], -1) {
			documented[tool][m[1]] = true
		}
	}
	defined := definedFlags(t)
	for tool, flags := range defined {
		for name := range flags {
			if !documented[tool][name] {
				t.Errorf("%s defines -%s, which no docs/FIDELITY.md B3 row names: give it a consumer", tool, name)
			}
		}
	}
	for tool, flags := range documented {
		for name := range flags {
			if !defined[tool][name] {
				t.Errorf("docs/FIDELITY.md B3 names %s -%s, which the tool does not define: drop it from the row", tool, name)
			}
		}
	}
}

// TestFidelityNamesEveryTestOnlyExport holds Part B to FIDELITY's rule that
// UNUSED is a deletion list: every exported function under internal/, and
// every exported method on an exported type there (String and Error
// aside), that no non-test .go file of the repository mentions outside
// comments and declarations — under cmd/, internal/, bench/, examples/ or
// at the root — is named in a Part B row that does not mark it DELETED,
// where its status says why it stays. So an export that only tests call
// cannot arrive unexplained.
//
// The check matches names, not objects. A package-qualified mention
// (metrics.NewSampler) counts for that package's function only, and any
// other mention of the name for every function of that name. A method
// counts as used where x.Name appears as something a method can be: not a
// package's name, not selected from (t6.All.ReadMissPct) and not addressed
// (&st.All), which are fields. A method whose name is shared with one in
// use slips through — the pacer's WallClock.At would have, because Sim.At
// is called everywhere.
func TestFidelityNamesEveryTestOnlyExport(t *testing.T) {
	root := filepath.Join("..", "..")
	goMod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	_, module, _ := strings.Cut(string(goMod), "module ")
	module, _, _ = strings.Cut(module, "\n")
	used := map[string]int{}      // identifier name -> mentions outside declarations and pkg.Name
	qualified := map[string]int{} // "import/path.Name" -> pkg.Name mentions
	methods := map[string]int{}   // name -> x.Name mentions that can be a method
	type export struct {
		name string
		fn   string // a function's "import/path.Name"; "" for a method
		at   string
	}
	var exports []export
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // package name in this file -> import path
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		field := map[*ast.SelectorExpr]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if x, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					field[x] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+n.Sel.Name]++
					return false
				}
				if x, ok := n.X.(*ast.SelectorExpr); ok {
					field[x] = true
				}
				if !field[n] {
					methods[n.Sel.Name]++
				}
			case *ast.Ident:
				used[n.Name]++
			}
			return true
		})
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			used[fn.Name.Name]--
			if !strings.HasPrefix(rel, "internal/") || !fn.Name.IsExported() {
				continue
			}
			qual, fnKey := file.Name.Name+".", module+"/"+filepath.ToSlash(filepath.Dir(rel))+"."+fn.Name.Name
			if fn.Recv != nil {
				fnKey = ""
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				typ, ok := recv.(*ast.Ident)
				if !ok || !typ.IsExported() || fn.Name.Name == "String" || fn.Name.Name == "Error" {
					continue
				}
				qual += typ.Name + "."
			}
			exports = append(exports, export{fn.Name.Name, fnKey, qual + fn.Name.Name + " (" + rel + ")"})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	named := map[string]bool{} // every identifier inside a `code span` of a live Part B row
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	span := regexp.MustCompile("`[^`]*`")
	for _, row := range partBRows(t) {
		if row[len(row)-1] == "DELETED" {
			continue
		}
		for _, cell := range row {
			for _, s := range span.FindAllString(cell, -1) {
				for _, w := range word.FindAllString(s, -1) {
					named[w] = true
				}
			}
		}
	}
	for _, e := range exports {
		inUse := methods[e.name] > 0
		if e.fn != "" {
			inUse = used[e.name] > 0 || qualified[e.fn] > 0
		}
		if !inUse && !named[e.name] {
			t.Errorf("%s is called by tests only, and no docs/FIDELITY.md Part B row names it: delete it, or give it a row (TEST SEAM, BENCH-PINNED)", e.at)
		}
	}
}

// TestFidelityHasNoUnusedRows: UNUSED is a deletion list that is executed,
// not deferred — a row may not be committed with that status.
func TestFidelityHasNoUnusedRows(t *testing.T) {
	for _, row := range partBRows(t) {
		for _, cell := range row[1:] {
			if strings.Trim(cell, "*") == "UNUSED" {
				t.Errorf("docs/FIDELITY.md marks %s UNUSED: delete it in the same change", row[0])
			}
		}
	}
}

// TestFidelityCheckRunsNoDuplicate: `make check` does not re-run subsets of
// itself — a make target that Part B marks DUPLICATE (its tests are already
// run by `test` or `race`) may stay as a handle, not as a prerequisite.
func TestFidelityCheckRunsNoDuplicate(t *testing.T) {
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(mk), "\ncheck:")
	if !ok {
		t.Fatal("Makefile has no check target")
	}
	prereqs, _, _ := strings.Cut(after, "\n")
	steps := map[string]bool{}
	for _, step := range strings.Fields(prereqs) {
		steps[step] = true
	}
	if !steps["test"] || !steps["race"] {
		t.Fatalf("make check's prerequisites %q lack test or race: the Makefile was misread", prereqs)
	}
	for _, row := range partBRows(t) {
		if name := strings.Trim(row[0], "`"); steps[name] && row[len(row)-1] == "DUPLICATE" {
			t.Errorf("make check runs %s, which docs/FIDELITY.md marks DUPLICATE: drop it from check's prerequisites", name)
		}
	}
}
