package ffsva_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentedTestsExist requires every Test… or Fuzz… name that
// DESIGN.md, README.md or EXPERIMENTS.md cites to be declared in some
// _test.go file of the module, and every repo path they quote in code
// (see citedPaths) to exist, so the documents cannot point at a check
// or a program that was renamed or deleted.
func TestDocumentedTestsExist(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	cited, paths := 0, 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(src), -1) {
			cited++
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
		for _, path := range citedPaths(string(src)) {
			paths++
			if !pathExists(path) {
				t.Errorf("%s quotes %s, which is not in the repo", doc, path)
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no test; the citation pattern is wrong")
	}
	if paths == 0 {
		t.Fatal("the documents quote no repo path; the path pattern is wrong")
	}
}

// citedPaths returns the repo paths a Markdown document quotes in code:
// every whitespace-separated token of an inline code span or a fenced
// code line that starts, after an optional "./", with cmd/, examples/,
// internal/, bench/ or docs/. A token ends at the first character that
// cannot be part of a path, so `internal/filters.SNM(f)` yields
// internal/filters.SNM and `internal/{a,b}` yields internal/.
func citedPaths(doc string) []string {
	var code []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code = append(code, line)
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		code = append(code, m[1])
	}
	var paths []string
	for _, span := range code {
		for _, tok := range strings.Fields(span) {
			tok = strings.TrimPrefix(tok, "./")
			if !repoPath.MatchString(tok) {
				continue
			}
			if i := strings.IndexFunc(tok, notPathRune); i >= 0 {
				tok = tok[:i]
			}
			paths = append(paths, tok)
		}
	}
	return paths
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	repoPath   = regexp.MustCompile(`^(?:cmd|examples|internal|bench|docs)/`)
)

func notPathRune(r rune) bool {
	return !(r == '/' || r == '.' || r == '_' || r == '-' ||
		'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9')
}

// pathExists reports whether path names a file or directory, or is a
// pkg.Ident form (internal/filters.SNM, internal/lab.TestX) whose
// package directory exists.
func pathExists(path string) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	dir, last := filepath.Split(path)
	pkg, _, ok := strings.Cut(last, ".")
	if !ok {
		return false
	}
	info, err := os.Stat(filepath.Join(dir, pkg))
	return err == nil && info.IsDir()
}
