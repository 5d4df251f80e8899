package core

import (
	"io/fs"
	"os"
	"path/filepath"
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
