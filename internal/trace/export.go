package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"sort"
	"time"
)

// us converts a clock offset to trace-event microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// trackKey identifies one timeline: a span kind on a device. One track
// per stage/device pair per instance is the Perfetto layout the ISSUE
// asks for; waits have no device and collapse to one track per kind.
type trackKey struct {
	kind Kind
	dev  string
}

func (t trackKey) label() string {
	if t.dev == "" {
		return t.kind.String()
	}
	return t.kind.String() + "@" + t.dev
}

// sortFrames orders retained frames deterministically: same seed, same
// schedule, same bytes out.
func sortFrames(fts []*FrameTrace) {
	sort.Slice(fts, func(i, j int) bool {
		a, b := fts[i], fts[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Seq < b.Seq
	})
}

// Trace-event JSON shapes. Field order is fixed by the struct
// definitions, which is what makes the export byte-deterministic.

type tevMetaArgs struct {
	Name string `json:"name"`
}

type tevMeta struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args tevMetaArgs `json:"args"`
}

type tevSpanArgs struct {
	Stream      int    `json:"stream"`
	Seq         int64  `json:"seq"`
	Dev         string `json:"dev,omitempty"`
	Batch       int32  `json:"batch,omitempty"`
	Drop        bool   `json:"drop,omitempty"`
	Disposition string `json:"disposition,omitempty"`
}

type tevSpan struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args tevSpanArgs `json:"args"`
}

type tevInstant struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s"`
}

// WriteTraceEvents renders the retained traces as Chrome trace-event
// JSON (the "JSON Array Format" Perfetto and chrome://tracing load):
// one process per instance, one thread per stage/device track, "X"
// complete events for spans, "i" instants for throttle/fault/cluster
// events. Output is deterministic for a deterministic run: it contains
// only virtual-clock values and fixed-order keys, no export-time
// stamping.
func (tr *Tracer) WriteTraceEvents(w io.Writer) error {
	if tr == nil {
		return errors.New("trace: tracer disabled")
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()

	frames := tr.retained()
	sortFrames(frames)

	// Assign one tid per (kind, device) track per instance, in cascade
	// order; tid 0 is the instant-event track.
	tracks := map[int]map[trackKey]int{}
	pidSet := map[int]bool{}
	for _, ft := range frames {
		pidSet[ft.Instance] = true
		m := tracks[ft.Instance]
		if m == nil {
			m = map[trackKey]int{}
			tracks[ft.Instance] = m
		}
		for _, sp := range ft.Spans {
			m[trackKey{sp.Kind, sp.Dev}] = 0
		}
	}
	for _, in := range tr.instants {
		pidSet[in.Instance] = true
	}
	var pids []int
	for pid := range pidSet {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var events []any
	for _, pid := range pids {
		events = append(events, tevMeta{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: tevMetaArgs{Name: fmt.Sprintf("ffsva instance %d", pid)},
		})
		events = append(events, tevMeta{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
			Args: tevMetaArgs{Name: "events"},
		})
		m := tracks[pid]
		keys := make([]trackKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].kind != keys[j].kind {
				return keys[i].kind < keys[j].kind
			}
			return keys[i].dev < keys[j].dev
		})
		for i, k := range keys {
			m[k] = i + 1
			events = append(events, tevMeta{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 1,
				Args: tevMetaArgs{Name: k.label()},
			})
		}
	}
	for _, ft := range frames {
		m := tracks[ft.Instance]
		for _, sp := range ft.Spans {
			cat := "service"
			if sp.Kind.IsWait() {
				cat = "wait"
			}
			events = append(events, tevSpan{
				Name: sp.Kind.String(), Cat: cat, Ph: "X",
				Ts: us(sp.Start), Dur: us(sp.End - sp.Start),
				Pid: ft.Instance, Tid: m[trackKey{sp.Kind, sp.Dev}],
				Args: tevSpanArgs{
					Stream: ft.Stream, Seq: ft.Seq, Dev: sp.Dev,
					Batch: sp.Batch, Drop: sp.Drop,
					Disposition: ft.Disposition,
				},
			})
		}
	}
	instants := append([]Instant(nil), tr.instants...)
	sort.Slice(instants, func(i, j int) bool {
		a, b := instants[i], instants[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		return a.Name < b.Name
	})
	for _, in := range instants {
		events = append(events, tevInstant{
			Name: in.Name, Cat: in.Cat, Ph: "i",
			Ts: us(in.At), Pid: in.Instance, Tid: 0, S: "p",
		})
	}

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// Validate checks data against the trace-event schema subset this
// package emits: a traceEvents array whose members are "X" complete
// events (name, non-negative ts and dur, pid/tid), "i" instants
// (name, ts), or "M" metadata records. It is the stdlib checker behind
// `make trace-smoke`.
func Validate(data []byte) error {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return errors.New("trace: missing traceEvents array")
	}
	if len(doc.TraceEvents) == 0 {
		return errors.New("trace: empty traceEvents array")
	}
	sawSpan := false
	for i, raw := range doc.TraceEvents {
		var ev struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d: missing name", i)
		}
		switch ev.Ph {
		case "X":
			sawSpan = true
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("trace: event %d (%s): X event needs ts >= 0", i, ev.Name)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("trace: event %d (%s): X event needs dur >= 0", i, ev.Name)
			}
			if ev.Pid == nil || ev.Tid == nil {
				return fmt.Errorf("trace: event %d (%s): X event needs pid and tid", i, ev.Name)
			}
		case "i":
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("trace: event %d (%s): instant needs ts >= 0", i, ev.Name)
			}
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				return fmt.Errorf("trace: event %d: unknown metadata record %q", i, ev.Name)
			}
		default:
			return fmt.Errorf("trace: event %d (%s): unsupported phase %q", i, ev.Name, ev.Ph)
		}
	}
	if !sawSpan {
		return errors.New("trace: no span (X) events")
	}
	return nil
}

// WriteTracez renders the retained traces as a minimal HTML page for
// the live /tracez endpoint: slowest frames first, one row per frame
// with its span breakdown.
func (tr *Tracer) WriteTracez(w io.Writer) error {
	if tr == nil {
		_, err := io.WriteString(w, "<html><body><p>tracing disabled</p></body></html>\n")
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()

	frames := tr.retained()
	sort.Slice(frames, func(i, j int) bool {
		a, b := frames[i], frames[j]
		if a.Latency() != b.Latency() {
			return a.Latency() > b.Latency()
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.Seq < b.Seq
	})
	const maxRows = 100
	if len(frames) > maxRows {
		frames = frames[:maxRows]
	}
	var werr error
	pf := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format, args...)
		}
	}
	pf("<!DOCTYPE html><html><head><title>tracez</title>" +
		"<style>body{font-family:monospace}table{border-collapse:collapse}" +
		"td,th{border:1px solid #999;padding:2px 6px;text-align:left}</style>" +
		"</head><body>\n")
	pf("<h1>tracez</h1><p>%d frames finished, %d retained (slowest %d shown), %d instants (%d dropped)</p>\n",
		tr.finished, len(tr.retained()), len(frames), len(tr.instants), tr.instDrop)
	pf("<table><tr><th>inst</th><th>stream</th><th>seq</th><th>disposition</th>" +
		"<th>start</th><th>latency</th><th>spans</th></tr>\n")
	for _, ft := range frames {
		pf("<tr><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%v</td><td>%v</td><td>",
			ft.Instance, ft.Stream, ft.Seq, html.EscapeString(ft.Disposition),
			ft.Start.Round(time.Microsecond), ft.Latency().Round(time.Microsecond))
		for i, sp := range ft.Spans {
			if i > 0 {
				pf(" ")
			}
			lbl := sp.Kind.String()
			if sp.Dev != "" {
				lbl += "@" + html.EscapeString(sp.Dev)
			}
			pf("%s=%v", lbl, (sp.End - sp.Start).Round(time.Microsecond))
		}
		pf("</td></tr>\n")
	}
	pf("</table></body></html>\n")
	return werr
}
