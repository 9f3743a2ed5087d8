package timeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// dumper owns the event-triggered flight-recorder dumps: a trigger
// (fault, overload, migration) arms a pending dump, the next
// dumpPostTicks ticks let the aftermath land in the ring, and the
// frozen window is serialized to JSONL by a background writer
// goroutine so the clock process feeding Observe never blocks on the
// filesystem. The writer is stop-channel joinable: close() signals
// stop, drains queued jobs, and waits for the goroutine to exit.
//
// Locking: init/submit/close and the written-file state use the
// dumper's own mutex or channels; arm/onTick/flushLocked mutate the
// pending-dump state and are called with the owning Recorder's mutex
// held.
type dumper struct {
	dir string

	// pending/count are guarded by the owning Recorder's mu.
	pending *pendingDump
	count   int

	jobs    chan dumpJob
	stop    chan struct{}
	wg      sync.WaitGroup
	started bool

	wmu   sync.Mutex
	files []string
	err   error
}

// pendingDump is an armed, not-yet-frozen dump window.
type pendingDump struct {
	triggers  []Event
	remaining int
}

// dumpJob is one frozen window ready to hit the filesystem.
type dumpJob struct {
	path string
	data []byte
}

// Dump window and count bounds.
const (
	// dumpPreTicks is how many ticks before the trigger a dump keeps.
	dumpPreTicks = 64
	// dumpPostTicks is how many more ticks a triggered dump waits for
	// before freezing, so the file shows the aftermath.
	dumpPostTicks = 4
	// maxDumps bounds the number of dump files per run.
	maxDumps = 16
)

func (d *dumper) init(dir string) {
	d.dir = dir
	if dir == "" {
		return
	}
	d.jobs = make(chan dumpJob, maxDumps+1)
	d.stop = make(chan struct{})
	d.started = true
	d.wg.Add(1)
	go d.run()
}

// run is the writer goroutine: it drains dump jobs until stopped, then
// drains whatever is still queued and exits (close() waits for it).
func (d *dumper) run() {
	defer d.wg.Done()
	for {
		select {
		case j := <-d.jobs:
			d.write(j)
		case <-d.stop:
			for {
				select {
				case j := <-d.jobs:
					d.write(j)
				default:
					return
				}
			}
		}
	}
}

func (d *dumper) write(j dumpJob) {
	err := os.WriteFile(j.path, j.data, 0o644)
	d.wmu.Lock()
	if err != nil {
		if d.err == nil {
			d.err = err
		}
	} else {
		d.files = append(d.files, j.path)
	}
	d.wmu.Unlock()
}

// arm starts (or extends) the pending dump for a trigger event; called
// with the Recorder's mu held.
func (d *dumper) arm(ev Event) {
	if d.dir == "" || d.count >= maxDumps {
		return
	}
	if d.pending == nil {
		d.count++
		d.pending = &pendingDump{remaining: dumpPostTicks}
	}
	d.pending.triggers = append(d.pending.triggers, ev)
}

// onTick advances the pending dump's countdown and freezes it when the
// aftermath window is complete (or the run finished); called with the
// Recorder's mu held.
func (d *dumper) onTick(r *Recorder, finished bool) []dumpJob {
	if d.pending == nil {
		return nil
	}
	d.pending.remaining--
	if d.pending.remaining > 0 && !finished {
		return nil
	}
	return []dumpJob{d.freezeLocked(r)}
}

// flushLocked freezes a still-pending dump immediately (Close before
// the aftermath window elapsed); called with the Recorder's mu held.
func (d *dumper) flushLocked(r *Recorder) []dumpJob {
	if d.pending == nil {
		return nil
	}
	return []dumpJob{d.freezeLocked(r)}
}

// Dump JSONL line shapes.

type dlTrigger struct {
	Type     string  `json:"type"`
	Name     string  `json:"name"`
	Cat      string  `json:"cat"`
	Instance int     `json:"instance"`
	AtUS     float64 `json:"at_us"`
}

type dlTick struct {
	Type string `json:"type"`
	Tick
}

// freezeLocked serializes the window around the pending triggers — up
// to dumpPreTicks ticks before the first trigger plus the aftermath —
// and clears the pending state. The filename is derived from the dump
// ordinal and the trigger's clock time, so identically seeded runs
// write identically named, byte-identical files. Called with the
// Recorder's mu held.
func (d *dumper) freezeLocked(r *Recorder) dumpJob {
	p := d.pending
	d.pending = nil

	ticks := r.orderedTicksLocked()
	keep := dumpPreTicks + dumpPostTicks
	if len(ticks) > keep {
		ticks = ticks[len(ticks)-keep:]
	}
	var buf []byte
	enc := func(v any) {
		line, err := json.Marshal(v)
		if err != nil {
			return
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	for _, tg := range p.triggers {
		enc(dlTrigger{
			Type: "trigger", Name: tg.Name, Cat: tg.Cat,
			Instance: tg.Instance, AtUS: float64(tg.At) / float64(time.Microsecond),
		})
	}
	for _, t := range ticks {
		enc(dlTick{Type: "tick", Tick: t})
	}

	first := p.triggers[0]
	name := fmt.Sprintf("dump-%03d-%s-%dms.jsonl", d.count, first.Cat, first.At/time.Millisecond)
	return dumpJob{path: filepath.Join(d.dir, name), data: buf}
}

// submit hands frozen windows to the writer goroutine; a no-op without
// a DumpDir. The jobs channel holds maxDumps+1 entries and at most
// maxDumps dumps are ever armed, so the send cannot block.
func (d *dumper) submit(jobs []dumpJob) {
	for _, j := range jobs {
		d.jobs <- j
	}
}

// close joins the writer goroutine and reports the first write error.
func (d *dumper) close() error {
	if d.started {
		close(d.stop)
		d.wg.Wait()
		d.started = false
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.err
}

// written returns the dump files written so far, in write order.
func (d *dumper) written() []string {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return append([]string(nil), d.files...)
}
