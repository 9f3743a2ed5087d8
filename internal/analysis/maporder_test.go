package analysis

import "testing"

// TestMapOrderGolden runs maporder over its fixture in interprocedural
// mode (the transitive-writer case needs the whole-module view).
func TestMapOrderGolden(t *testing.T) {
	goldenInterproc(t, MapOrder, "testdata/src/maporder")
}

// TestMapOrderIntraStillCatchesDirectSinks proves the analyzer works
// without a Program too: every direct-sink violation in the fixture is
// still reported; only the transitive one needs interproc mode.
func TestMapOrderIntraStillCatchesDirectSinks(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("internal/analysis/testdata/src/maporder")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkgs[0], []*Analyzer{MapOrder})
	// Fixture has 5 violations; the badTransitive one is invisible intra.
	if len(diags) != 4 {
		t.Fatalf("intra mode: want 4 direct-sink diagnostics, got %d: %v", len(diags), diags)
	}
}
