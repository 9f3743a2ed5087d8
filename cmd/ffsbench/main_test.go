package main

import (
	"os"
	"strings"
	"testing"
)

func TestSelectJobsRejectsUnknownID(t *testing.T) {
	for _, only := range []string{"fig11", "fig3,tabel1", "kernels"} {
		sel, err := selectJobs(only)
		if err == nil {
			t.Errorf("selectJobs(%q) = %d jobs, want an error", only, len(sel))
			continue
		}
		if !strings.Contains(err.Error(), jobIDs()) {
			t.Errorf("selectJobs(%q) error %q does not list the valid ids", only, err)
		}
	}
	sel, err := selectJobs(" FIG4 ,table1")
	if err != nil || len(sel) != 2 || sel[0].id != "table1" || sel[1].id != "fig4" {
		t.Errorf("selectJobs(\" FIG4 ,table1\") = %d jobs, %v; want table1, fig4 in output order", len(sel), err)
	}
}

// TestResultsJobsNameJobs keeps the Makefile's results-check job list
// in step with the job table: a stale id would fail results-check only
// after a full run.
func TestResultsJobsNameJobs(t *testing.T) {
	data, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var ids string
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "RESULTS_JOBS = "); ok {
			ids = rest
		}
	}
	if ids == "" {
		t.Fatal("no RESULTS_JOBS line in the Makefile")
	}
	sel, err := selectJobs(ids)
	if err != nil {
		t.Fatalf("RESULTS_JOBS: %v", err)
	}
	if n := len(strings.Split(ids, ",")); len(sel) != n {
		t.Errorf("RESULTS_JOBS names %d ids but selects %d jobs", n, len(sel))
	}
}
