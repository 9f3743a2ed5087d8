package analysis

import "testing"

// TestGoStopGolden runs gostop over its fixture in interprocedural mode
// (the named-callee cases need the whole-module view).
func TestGoStopGolden(t *testing.T) {
	goldenInterproc(t, GoStop, "testdata/src/gostop")
}

// TestGoStopScope pins the analyzer to the long-running pipeline
// packages: a goroutine in a leaf utility package is out of scope.
func TestGoStopScope(t *testing.T) {
	for _, tc := range []struct {
		path string
		in   bool
	}{
		{"ffsva/internal/pipeline", true},
		{"ffsva/internal/cluster", true},
		{"ffsva/internal/cluster/sched", true},
		{"ffsva/internal/obs", true},
		{"ffsva/internal/frame", false},
		{"ffsva/internal/vclock", false},
		{"ffsva/cmd/ffsbench", false},
	} {
		if got := inGoStopScope(tc.path); got != tc.in {
			t.Errorf("inGoStopScope(%q) = %v, want %v", tc.path, got, tc.in)
		}
	}
}
