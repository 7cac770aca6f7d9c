package proxrank_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocPaths holds the three places that map the tree — the "support:"
// block of ARCHITECTURE.md's layer diagram, its "Where things are" table
// and README's "Repository layout" list — to the tree: every internal/…,
// cmd/…, service and api path they name exists, and every package outside
// examples/ is named by at least one of them. A removed package cannot
// stay on the map, and a new one cannot stay off it.
func TestDocPaths(t *testing.T) {
	arch, readme := readDoc(t, "ARCHITECTURE.md"), readDoc(t, "README.md")
	sections := map[string]string{
		"ARCHITECTURE.md layer diagram": between(t, arch, "   support:", "```"),
		"ARCHITECTURE.md table":         between(t, arch, "## Where things are", "\n## "),
		"README.md layout":              between(t, readme, "## Repository layout", "\n## "),
	}
	path := regexp.MustCompile(`\b(?:internal|cmd|service|api)(?:/[\w.-]+)*`)
	var named []string
	for where, text := range sections {
		for _, p := range path.FindAllString(text, -1) {
			p = strings.TrimRight(p, ".")
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", where, p)
			}
			named = append(named, p)
		}
	}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || p == "." {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") || p == "examples" {
			return fs.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
			return fs.SkipDir // bench/ is its own module
		}
		files, _ := filepath.Glob(filepath.Join(p, "*.go"))
		isPackage := slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") })
		pkg := filepath.ToSlash(p)
		if isPackage && !slices.ContainsFunc(named, func(n string) bool { return n == pkg || strings.HasPrefix(n, pkg+"/") }) {
			t.Errorf("package %s is named in none of ARCHITECTURE.md's layer diagram, its \"Where things are\" table and README's layout list", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// between returns the text of doc from start up to the next end marker
// (or the end of the document).
func between(t *testing.T, doc, start, end string) string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, start)
	if !ok {
		t.Fatalf("no %q in the document", start)
	}
	section, _, _ := strings.Cut(rest, end)
	return section
}
