package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"ffsva"
)

// TestClusterSnapshotsNameTheirInstance: a two-instance run printed
// through -metrics's printer emits at least one snapshot per instance,
// in text and in JSON, and every snapshot names its instance.
func TestClusterSnapshotsNameTheirInstance(t *testing.T) {
	for _, asJSON := range []bool{false, true} {
		cfg := ffsva.DefaultClusterConfig()
		cfg.Streams = 2
		cfg.FramesPerStream = 60
		cfg.ArrivalEvery = 500 * time.Millisecond
		var out bytes.Buffer
		cfg.OnSnapshot = snapshotPrinter(&out, asJSON, true)
		if _, err := ffsva.RunCluster(cfg); err != nil {
			t.Fatal(err)
		}
		per := map[int]int{}
		for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
			if asJSON {
				var sn struct {
					Instance *int           `json:"instance"`
					At       *time.Duration `json:"at"`
				}
				if err := json.Unmarshal([]byte(line), &sn); err != nil || sn.Instance == nil || sn.At == nil {
					t.Fatalf("JSON line without an instance and a snapshot (%v): %s", err, line)
				}
				per[*sn.Instance]++
				continue
			}
			if strings.HasPrefix(line, "  ") {
				continue // a continuation of the snapshot above
			}
			var i int
			if _, err := fmt.Sscanf(line, "instance %d: t=", &i); err != nil {
				t.Fatalf("text snapshot without its instance (%v): %s", err, line)
			}
			per[i]++
		}
		if per[0] == 0 || per[1] == 0 || len(per) != 2 {
			t.Errorf("json=%v: snapshots per instance %v, want both of 0 and 1", asJSON, per)
		}
	}
}

// TestSingleInstanceSnapshotsPrintAsBefore: a single-instance run's
// snapshot is printed bare, as its String or its JSON.
func TestSingleInstanceSnapshotsPrintAsBefore(t *testing.T) {
	sn := ffsva.Snapshot{At: time.Second, Mode: "online", BatchPolicy: "dynamic", Ingested: 30}
	for _, asJSON := range []bool{false, true} {
		var out bytes.Buffer
		snapshotPrinter(&out, asJSON, false)(0, sn)
		want := sn.String() + "\n"
		if asJSON {
			want = sn.JSON() + "\n"
		}
		if out.String() != want {
			t.Errorf("json=%v: printed %q, want %q", asJSON, out.String(), want)
		}
	}
}
