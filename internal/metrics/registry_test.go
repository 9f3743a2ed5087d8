package metrics

import (
	"reflect"
	"testing"
	"time"
)

// fillRegistry populates a registry with one metric of every kind;
// labelOrder controls the order the labeled counter's labels are first
// touched in, which must not leak into the export.
func fillRegistry(labelOrder []string) *Registry {
	r := NewRegistry()
	r.Counter("frames_ingested").Add(42)
	lc := r.LabeledCounter("drops")
	for _, l := range labelOrder {
		lc.With(l).Add(int64(len(l)))
	}
	d := r.IntDist("batch_size")
	d.Observe(4)
	d.Observe(8)
	h := r.Histogram("latency")
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	m := r.Meter("tyolo_fps", time.Second, 4)
	m.Mark(time.Second, 30)
	return r
}

// TestExportDeterministic is the regression test for the export
// contract the /metrics byte-stability (and the timeline's tick
// parsing) depend on: registration order is preserved, labeled
// counters flatten in sorted label order regardless of touch order,
// and a repeated Export is identical.
func TestExportDeterministic(t *testing.T) {
	a := fillRegistry([]string{"sdd", "snm", "tyolo"}).Export(2 * time.Second)
	b := fillRegistry([]string{"tyolo", "sdd", "snm"}).Export(2 * time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("export depends on label touch order:\n%v\n%v", a, b)
	}

	r := fillRegistry([]string{"snm", "tyolo", "sdd"})
	first := r.Export(2 * time.Second)
	if again := r.Export(2 * time.Second); !reflect.DeepEqual(first, again) {
		t.Fatalf("repeated export differs:\n%v\n%v", first, again)
	}

	// Registration order, not name order: frames_ingested registered
	// first stays first even though "batch_size" sorts before it.
	if first[0].Name != "frames_ingested" || first[0].Value != 42 {
		t.Fatalf("registration order not preserved: %v", first[:2])
	}
	// Labeled counters flatten sorted.
	var labels []string
	for _, s := range first {
		if len(s.Name) > 6 && s.Name[:6] == "drops{" {
			labels = append(labels, s.Name)
		}
	}
	want := []string{"drops{sdd}", "drops{snm}", "drops{tyolo}"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labeled counter order = %v, want %v", labels, want)
	}
}

// TestExportSharesUnchangedSamples: an Export that finds every sample
// equal to the previous one returns that same slice and allocates
// nothing; a change publishes a new slice and leaves the old one as it
// was, and a label first touched after an export still sorts into place.
func TestExportSharesUnchangedSamples(t *testing.T) {
	r := fillRegistry([]string{"snm", "tyolo"})
	first := r.Export(2 * time.Second)
	if allocs := testing.AllocsPerRun(100, func() { r.Export(2 * time.Second) }); allocs != 0 {
		t.Errorf("unchanged Export allocates %v times", allocs)
	}
	if again := r.Export(2 * time.Second); &again[0] != &first[0] {
		t.Error("unchanged Export returned a new slice")
	}
	kept := append([]Sample(nil), first...)

	r.Counter("frames_ingested").Inc()
	r.LabeledCounter("drops").With("sdd").Add(3)
	changed := r.Export(2 * time.Second)
	if &changed[0] == &first[0] || !reflect.DeepEqual(first, kept) {
		t.Fatalf("a change wrote into the published export:\n%v\nwas\n%v", first, kept)
	}
	if changed[0].Value != 43 {
		t.Errorf("frames_ingested = %v after Inc, want 43", changed[0].Value)
	}
	want := fillRegistry([]string{"sdd", "snm", "tyolo"})
	want.Counter("frames_ingested").Inc()
	if w := want.Export(2 * time.Second); !reflect.DeepEqual(changed, w) {
		t.Errorf("export after a late label:\n%v\nwant\n%v", changed, w)
	}
}

// TestIntDistCountsSharesUnchanged: Counts hands back the caller's slice
// while it still holds the counts, and a new one once they move.
func TestIntDistCountsSharesUnchanged(t *testing.T) {
	var d IntDist
	if got := d.Counts(nil); got != nil {
		t.Fatalf("empty distribution: %v, want nil", got)
	}
	d.Observe(2)
	first := d.Counts(nil)
	if same := d.Counts(first); &same[0] != &first[0] {
		t.Error("unchanged Counts returned a new slice")
	}
	d.Observe(1)
	next := d.Counts(first)
	if !reflect.DeepEqual(first, []int64{0, 0, 1}) || !reflect.DeepEqual(next, []int64{0, 1, 1}) {
		t.Errorf("counts %v then %v, want [0 0 1] then [0 1 1]", first, next)
	}
}
