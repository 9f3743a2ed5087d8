package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// wantRe matches golden expectation comments in fixture files:
//
//	some.Bad(call) // want "regexp"
//
// Each `// want` line must be matched by at least one diagnostic of the
// analyzer under test on that line, and every diagnostic must land on a
// line with a matching want — the analysistest contract, minus the
// x/tools dependency.
var wantRe = regexp.MustCompile(`//\s*want\s+` + "[\"`]" + `(.+?)` + "[\"`]" + `\s*$`)

// GoldenFailure is one mismatch between expected and actual diagnostics.
type GoldenFailure string

// RunGolden loads the fixture package at dir (relative to the analysis
// package's own directory, e.g. "testdata/src/detnow"), runs one
// analyzer with suppressions applied, and checks its diagnostics against
// the fixture's `// want "re"` comments. It returns one failure string
// per mismatch; an empty slice means the golden contract holds.
func RunGolden(a *Analyzer, dir string) ([]GoldenFailure, error) {
	return goldenRun(dir, func(l *Loader, pkg *Package) []Diagnostic {
		return RunAnalyzers(pkg, []*Analyzer{a})
	})
}

// RunGoldenInterproc is RunGolden in interprocedural mode: it attaches
// the whole-module Program, so ownership summaries and the transitive
// sink and join searches work.
func RunGoldenInterproc(a *Analyzer, dir string) ([]GoldenFailure, error) {
	return goldenRun(dir, func(l *Loader, pkg *Package) []Diagnostic {
		return RunAnalyzersProgram(BuildProgram(l.All()), pkg, []*Analyzer{a})
	})
}

// goldenRun implements the load-run-match cycle shared by both harness
// entry points.
func goldenRun(dir string, run func(*Loader, *Package) []Diagnostic) ([]GoldenFailure, error) {
	loader, err := NewLoader(".")
	if err != nil {
		return nil, err
	}
	abs := dir
	if !filepath.IsAbs(dir) {
		// Anchor relative fixture paths at this package's directory so
		// tests work regardless of the process working directory.
		abs = filepath.Join(loader.ModRoot, "internal", "analysis", dir)
	}
	pkgs, err := loader.Load(abs)
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("fixture %s: expected exactly 1 package, got %d", dir, len(pkgs))
	}
	pkg := pkgs[0]

	wants, err := collectWants(pkg.Fset, pkg)
	if err != nil {
		return nil, err
	}
	diags := run(loader, pkg)

	var fails []GoldenFailure
	matched := map[*want]bool{}
	for _, d := range diags {
		key := lineKey{d.Pos.Filename, d.Pos.Line}
		ok := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				matched[w] = true
				ok = true
			}
		}
		if !ok {
			fails = append(fails, GoldenFailure(fmt.Sprintf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				fails = append(fails, GoldenFailure(fmt.Sprintf("missing diagnostic at %s:%d: want match for %q", filepath.Base(key.file), key.line, w.re)))
			}
		}
	}
	return fails, nil
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re *regexp.Regexp
}

// collectWants scans fixture sources line-by-line for want comments.
// (Scanning text rather than the comment AST keeps a want attached to
// the physical line it trails, which is the whole contract.)
func collectWants(fset *token.FileSet, pkg *Package) (map[lineKey][]*want, error) {
	wants := map[lineKey][]*want{}
	for _, f := range pkg.Files {
		name := fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp: %v", name, i+1, err)
			}
			key := lineKey{name, i + 1}
			wants[key] = append(wants[key], &want{re: re})
		}
	}
	return wants, nil
}
