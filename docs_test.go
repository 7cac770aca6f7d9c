package proxrank_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
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

// TestDocIdentifiers holds what README.md, ARCHITECTURE.md and docs/API.md
// put in backticks to the code. Four kinds of span are read. One that
// starts `pkg.Name` or `Type.Member` (pkg a package of this module; any
// further `.Member` is followed too) must name a declaration, method or
// field that exists. Every `-flag` in a span must be a flag some binary
// under cmd/ defines, or one of the go tool's. A `"field":` must be a JSON
// tag some struct still carries. A span that is one `TestX`, `FuzzX` or
// `BenchmarkX` must be a test that still runs. A span that starts with
// anything else — a standard-library name, a file, a JSON path, prose —
// is not read, so the test never guesses. What it catches is the
// paragraph that outlives what it describes.
func TestDocIdentifiers(t *testing.T) {
	code := indexModule(t)
	span := regexp.MustCompile("`[^`\n]+`")
	dotted := regexp.MustCompile(`^([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)(?:$|[( ])`)
	flagRE := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	field := regexp.MustCompile(`^"(\w+)"\s*:`)
	testName := regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z]\w*$`)
	for _, name := range []string{"README.md", "ARCHITECTURE.md", "docs/API.md"} {
		for n, line := range strings.Split(readDoc(t, name), "\n") {
			for _, s := range span.FindAllString(line, -1) {
				s = s[1 : len(s)-1]
				stale := func(what string) { t.Errorf("%s:%d: `%s`: %s", name, n+1, s, what) }
				if m := dotted.FindStringSubmatch(s); m != nil && !fileExt[m[2][strings.LastIndex(m[2], "."):]] {
					parts := strings.Split(m[2][1:], ".")
					switch {
					case code.decls[m[1]] != nil:
						if !code.decls[m[1]][parts[0]] {
							stale("package " + m[1] + " declares no " + parts[0])
						} else if !code.hasMembers(parts) {
							stale("no such method or field")
						}
					case code.members[m[1]] != nil:
						if !code.hasMembers(append([]string{m[1]}, parts...)) {
							stale("no such method or field")
						}
					}
				}
				for _, m := range flagRE.FindAllStringSubmatch(s, -1) {
					if !code.flags[m[1]] {
						stale("no binary defines -" + m[1])
					}
				}
				if m := field.FindStringSubmatch(s); m != nil && !code.jsonTags[m[1]] {
					stale("no struct carries the JSON field " + m[1])
				}
				if testName.MatchString(s) && !code.tests[s] {
					stale("no such test")
				}
			}
		}
	}
}

// fileExt marks a dotted span as a file name, which TestDocPaths' kind of
// check owns, not this one.
var fileExt = map[string]bool{".go": true, ".md": true, ".json": true, ".prox": true, ".csv": true, ".spill": true, ".yml": true, ".sh": true}

// moduleIndex is what TestDocIdentifiers resolves against: per package
// name the top-level declarations, per type name (whatever its package)
// the methods and fields, every flag the binaries define, every JSON tag,
// every top-level function of the test files.
type moduleIndex struct {
	decls    map[string]map[string]bool
	members  map[string]map[string]bool
	flags    map[string]bool
	jsonTags map[string]bool
	tests    map[string]bool
}

// hasMembers follows chain[0].chain[1]… through methods and fields; a
// link whose type the index cannot name ends the walk as resolved.
func (ix *moduleIndex) hasMembers(chain []string) bool {
	for i := 0; i+1 < len(chain); i++ {
		m := ix.members[chain[i]]
		if m == nil {
			return true
		}
		if !m[chain[i+1]] {
			return false
		}
	}
	return true
}

func indexModule(t *testing.T) *moduleIndex {
	t.Helper()
	ix := &moduleIndex{
		decls:    map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		jsonTags: map[string]bool{},
		tests:    map[string]bool{},
		// What the documents pass to the go tool itself.
		flags: map[string]bool{"race": true, "run": true, "count": true, "bench": true, "fuzz": true, "tags": true},
	}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != "." && (err == nil || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, "_test.go") {
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					ix.tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		pkg := file.Name.Name
		if ix.decls[pkg] == nil {
			ix.decls[pkg] = map[string]bool{}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					ix.decls[pkg][n.Name.Name] = true
				} else if recv := typeName(n.Recv.List[0].Type); recv != "" {
					member(recv, n.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							ix.decls[pkg][id.Name] = true
						}
					case *ast.TypeSpec:
						ix.decls[pkg][spec.Name.Name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							member(spec.Name.Name, "") // a named type: methods may follow
							continue
						}
						for _, f := range fields.List {
							for _, id := range f.Names {
								member(spec.Name.Name, id.Name)
							}
							if f.Tag != nil {
								tag, _ := strconv.Unquote(f.Tag.Value)
								if name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); name != "" && name != "-" {
									ix.jsonTags[name] = true
								}
							}
						}
					}
				}
			case *ast.CallExpr:
				// fs.String("name", …), fs.Func("name", …), fs.IntVar(&v, "name", …)
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || pkg != "main" {
					return true
				}
				if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "fs" && recv.Name != "flag") {
					return true
				}
				for _, arg := range n.Args[:min(2, len(n.Args))] {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						ix.flags[name] = true
						break
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// typeName is the bare name of a receiver or field type: T, *T, T[P].
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	}
	return ""
}

// TestChangesEntryLength holds every CHANGES.md entry — a line that
// starts "PR n" — to 1 500 characters: an entry says what changed and
// where to look, and its tables and proofs belong in the documents it
// points to. The entries written longer before the cap are exempt, by
// name; from PR 52 on, none is.
func TestChangesEntryLength(t *testing.T) {
	const limit = 1500
	exempt := []string{"PR 4", "PR 5", "PR 6", "PR 7", "PR 9", "PR 10", "PR 11",
		"PR 12", "PR 14", "PR 15", "PR 16", "PR 17", "PR 18", "PR 20", "PR 35",
		"PR 40", "PR 45", "PR 46", "PR 50"}
	entry := regexp.MustCompile(`^PR \d+`)
	for i, line := range strings.Split(readDoc(t, "CHANGES.md"), "\n") {
		label := entry.FindString(line)
		if n := len([]rune(line)); label != "" && n > limit && !slices.Contains(exempt, label) {
			t.Errorf("CHANGES.md:%d: the %s entry is %d characters, over %d", i+1, label, n, limit)
		}
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
