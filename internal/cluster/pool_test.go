package cluster

import (
	"testing"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/faults"
	"ffsva/internal/frame"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
	"ffsva/internal/vidgen"
)

// TestPoolBalancedAcrossFaultsAndReforwards runs a cluster through every
// way a frame can leave early — corrupt payloads, decodes lost past the
// retry budget, shedding, an instance crash and re-forwarding — and
// holds the frame pool to its ledger: every plane taken is returned, and
// planes are taken only for frames the SDD stage reached, so a frame
// dropped before it is never drawn. Frame headers and capture records
// balance likewise.
func TestPoolBalancedAcrossFaultsAndReforwards(t *testing.T) {
	cam, err := lab.CarCamera(0.5) // trained, and its training frames returned, before counting
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(vclock.NewVirtual(), 3)
	cfg.Horizon = 40 * time.Second
	costs := device.Calibrated()
	ref := costs[device.ModelRef]
	ref.PerFrame = 55 * time.Millisecond
	costs[device.ModelRef] = ref
	cfg.Pipeline.Costs = costs
	cfg.Pipeline.IngestBuffer = 30
	cfg.Pipeline.ShedAfter = 300 * time.Millisecond
	cfg.Faults = []faults.Fault{
		{Kind: faults.CorruptFrame, Stream: 100, SeqFrom: 5, SeqTo: 10},
		{Kind: faults.DecodeError, Stream: 101, SeqFrom: 10, SeqTo: 13, Attempts: 5},
		{Kind: faults.InstanceCrash, Instance: 2, From: 9 * time.Second},
	}
	gets0, puts0 := frame.PoolStats()
	hgets0, hputs0 := frame.HeaderStats()
	rgets0, rputs0 := vidgen.RecordStats()
	cl := New(cfg, arrivals(t, cam, 4, 900, 500*time.Millisecond))
	rep := cl.Run()
	gets, puts := frame.PoolStats()
	hgets, hputs := frame.HeaderStats()
	rgets, rputs := vidgen.RecordStats()

	var sddIn int64
	for _, spec := range cl.specs {
		sddIn += spec.SDD.Stats().Processed // one filter per stream, across its fragments
	}
	t.Logf("drops %v, %d re-forwards, %d recoveries; %d frames reached SDD", rep.Drops, rep.Reforwards(), rep.Recoveries(), sddIn)
	if rep.Drops[pipeline.DropShed] == 0 || rep.Drops[pipeline.DropError] == 0 || rep.Failures() != 1 ||
		rep.Reforwards()+rep.Recoveries() == 0 {
		t.Fatal("the run did not shed, fail frames, crash an instance and move a stream")
	}
	if gets-gets0 != puts-puts0 {
		t.Errorf("pool: %d planes taken, %d returned", gets-gets0, puts-puts0)
	}
	if gets-gets0 != sddIn {
		t.Errorf("pool: %d planes taken for %d frames that reached SDD", gets-gets0, sddIn)
	}
	// Every captured frame — shed, lost to a decode, drained by the
	// crash or decided — hands its header and capture record back.
	if hgets-hgets0 != hputs-hputs0 || hgets-hgets0 < sddIn {
		t.Errorf("frame headers: %d taken, %d returned (%d frames reached SDD)", hgets-hgets0, hputs-hputs0, sddIn)
	}
	if rgets-rgets0 != rputs-rputs0 || rgets-rgets0 != hgets-hgets0 {
		t.Errorf("capture records: %d taken, %d returned, for %d headers", rgets-rgets0, rputs-rputs0, hgets-hgets0)
	}
}
