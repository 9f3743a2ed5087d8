package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ffsva/internal/faults"
	"ffsva/internal/lab"
	"ffsva/internal/vclock"
)

// TestPacedClusterMatchesUnpaced: a two-instance run whose second
// instance crashes at 500ms writes the same event log and the same frame
// ledger paced to the wall as unpaced, and the paced run takes at least
// its virtual span of wall time.
func TestPacedClusterMatchesUnpaced(t *testing.T) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := faults.Parse("crash:inst=1,at=500ms")
	if err != nil {
		t.Fatal(err)
	}
	run := func(clk *vclock.VirtualClock) (*Report, string) {
		cfg := DefaultConfig(clk, 2)
		// Failure detection's 2 s timeout declares the crash at 3.3 s.
		cfg.Horizon = 4 * time.Second
		cfg.Faults = []faults.Fault{crash}
		rep := New(cfg, arrivals(t, cam, 4, 45, 100*time.Millisecond)).Run()
		var log strings.Builder
		for _, e := range rep.Events {
			fmt.Fprintln(&log, e)
		}
		fmt.Fprintln(&log, rep.StreamFrames, rep.Drops)
		return rep, log.String()
	}
	rep, want := run(vclock.NewVirtual())
	if rep.Failures() != 1 || rep.Recoveries() == 0 {
		t.Fatalf("%d failures, %d recoveries; the crash must be detected and recovered:\n%s",
			rep.Failures(), rep.Recoveries(), want)
	}
	paced := vclock.NewPaced()
	start := time.Now()
	_, got := run(paced)
	if wall := time.Since(start); wall < paced.Now() {
		t.Errorf("paced run took %v of wall time for %v of virtual time", wall, paced.Now())
	}
	if got != want {
		t.Fatalf("paced event log differs:\n%s\nwant:\n%s", got, want)
	}
}
