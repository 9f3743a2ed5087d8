package analysis

import (
	"strings"
	"testing"
)

// golden runs one analyzer against its fixture package and reports every
// mismatch against the `// want` expectations.
func golden(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	fails, err := RunGolden(a, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fails {
		t.Error(string(f))
	}
}

// goldenInterproc is golden in interprocedural mode (whole-module
// Program attached).
func goldenInterproc(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	fails, err := RunGoldenInterproc(a, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fails {
		t.Error(string(f))
	}
}

// TestLoaderRepo proves the stdlib-only loader can type-check the whole
// module — the exact configuration `make lint` runs under.
func TestLoaderRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks every package")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected the module's full package set, loaded only %d", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s: incomplete type information", p.Path)
		}
	}
}

// TestSuppressionValidation proves malformed lint:allow annotations are
// themselves diagnostics: unknown analyzer names and missing reasons
// must fail the build rather than silently suppress nothing.
func TestSuppressionValidation(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("internal/analysis/testdata/src/badallow")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs[0], All())
	var reasons, unknown int
	for _, d := range diags {
		if d.Analyzer != "lint" {
			t.Errorf("unexpected non-lint diagnostic: %s", d)
		}
		switch {
		case strings.Contains(d.Message, "needs a reason"):
			reasons++
		case strings.Contains(d.Message, "known analyzer"):
			unknown++
		}
	}
	if reasons != 1 || unknown != 1 {
		t.Fatalf("want 1 missing-reason + 1 unknown-analyzer diagnostic, got %v", diags)
	}
}
