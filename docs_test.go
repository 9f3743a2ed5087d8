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
// _test.go file of the module, so the documents cannot point at a check
// that was renamed or deleted.
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
	cited := 0
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
	}
	if cited == 0 {
		t.Fatal("the documents cite no test; the citation pattern is wrong")
	}
}
