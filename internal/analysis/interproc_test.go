package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInterprocGolden is the positive contract: every `// want` in the
// fixture is satisfied (and nothing else reported) with ownership
// summaries on.
func TestInterprocGolden(t *testing.T) {
	goldenInterproc(t, PoolRelease, "testdata/src/interproc")
}

// loadInterprocFixture loads the interproc fixture package plus marker
// line numbers from its source:
//
//	"MARK:interproc-only" marks the NEXT line as a true positive only
//	interprocedural mode catches; a trailing "MARK:intra-fp" marks its
//	own line as an intra-mode false positive the summaries clear.
func loadInterprocFixture(t *testing.T) (l *Loader, pkg *Package, interprocOnly, intraFP []int) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("internal/analysis/testdata/src/interproc")
	if err != nil {
		t.Fatal(err)
	}
	pkg = pkgs[0]
	src, err := os.ReadFile(filepath.Join(pkg.Dir, "interproc.go"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "// MARK:interproc-only" {
			interprocOnly = append(interprocOnly, i+2) // marker sits above its line
		}
		if strings.HasSuffix(trimmed, "// MARK:intra-fp") {
			intraFP = append(intraFP, i+1)
		}
	}
	if len(interprocOnly) == 0 || len(intraFP) == 0 {
		t.Fatal("fixture lost its MARK comments")
	}
	return l, pkg, interprocOnly, intraFP
}

// TestInterprocVsIntra runs BOTH modes over the same fixture and asserts
// the contrast the tentpole exists for: the cross-function leaks are
// invisible to intra-function mode, and the intra-mode false positives
// disappear under ownership summaries.
func TestInterprocVsIntra(t *testing.T) {
	l, pkg, interprocOnly, intraFP := loadInterprocFixture(t)

	byLine := func(diags []Diagnostic) map[int][]Diagnostic {
		m := map[int][]Diagnostic{}
		for _, d := range diags {
			m[d.Pos.Line] = append(m[d.Pos.Line], d)
		}
		return m
	}
	analyzers := []*Analyzer{PoolRelease}
	intra := byLine(RunAnalyzers(pkg, analyzers))
	inter := byLine(RunAnalyzersProgram(BuildProgram(l.All()), pkg, analyzers))

	for _, line := range interprocOnly {
		if len(inter[line]) == 0 {
			t.Errorf("line %d: interproc mode should catch the cross-function bug, reported nothing", line)
		}
		if len(intra[line]) != 0 {
			t.Errorf("line %d: expected intra mode to be blind here, got %v (marker misplaced?)", line, intra[line])
		}
	}
	for _, line := range intraFP {
		if len(intra[line]) == 0 {
			t.Errorf("line %d: expected an intra-mode false positive here, got nothing (marker misplaced?)", line)
		}
		if len(inter[line]) != 0 {
			t.Errorf("line %d: the summaries should clear this false positive, still reported: %v", line, inter[line])
		}
	}
}

// TestOwnershipSummaries pins the lattice verdicts for the fixture's
// helper functions: borrowed, consumed, and returned classifications,
// plus the depth/recursion fallbacks being recorded as notes rather
// than wrong answers.
func TestOwnershipSummaries(t *testing.T) {
	l, pkg, _, _ := loadInterprocFixture(t)
	prog := BuildProgram(l.All())

	wantOutcome := map[string]Outcome{
		"observe": OutBorrowed,
		"finish":  OutBorrowed,
		"swallow": OutConsumed,
		"clamp":   OutReturned,
	}
	for name, want := range wantOutcome {
		obj := pkg.Types.Scope().Lookup(name)
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("fixture function %s not found", name)
		}
		sum := prog.SummaryOf(fn)
		if sum == nil {
			t.Fatalf("%s: no summary computed", name)
		}
		if len(sum.Params) != 1 || !sum.Params[0].Tracked {
			t.Fatalf("%s: expected one tracked parameter, got %+v", name, sum.Params)
		}
		if got := sum.Params[0].Outcome; got != want {
			t.Errorf("%s: param outcome = %s, want %s", name, got, want)
		}
	}
}
