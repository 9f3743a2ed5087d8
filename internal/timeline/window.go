package timeline

import "time"

// Query returns the retained ticks for one instance (or every instance
// when instance < 0) whose sample time falls in [from, to], oldest
// first. A non-positive `to` means "until the newest tick".
func (r *Recorder) Query(instance int, from, to time.Duration) []Tick {
	r.mu.Lock()
	ticks := r.orderedTicksLocked()
	r.mu.Unlock()
	out := make([]Tick, 0, len(ticks))
	for _, t := range ticks {
		if instance >= 0 && t.Instance != instance {
			continue
		}
		if t.At < from || (to > 0 && t.At > to) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// EventLog returns the retained point events for one instance (or every
// instance when instance < 0) whose time falls in [from, to], in record
// order. A non-positive `to` means "until the newest event".
func (r *Recorder) EventLog(instance int, from, to time.Duration) []Event {
	r.mu.Lock()
	events := append([]Event(nil), r.events...)
	r.mu.Unlock()
	out := make([]Event, 0, len(events))
	for _, ev := range events {
		if instance >= 0 && ev.Instance != instance {
			continue
		}
		if ev.At < from || (to > 0 && ev.At > to) {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// WindowDoc is the /timeline response document: the queried window's
// ticks and events plus the recorder's retention accounting.
type WindowDoc struct {
	TotalTicks    int64         `json:"total_ticks"`
	Retained      int           `json:"retained"`
	DroppedEvents int64         `json:"dropped_events"`
	From          time.Duration `json:"from"`
	To            time.Duration `json:"to"`
	Ticks         []Tick        `json:"ticks"`
	Events        []Event       `json:"events"`
}

// Window assembles the /timeline document for one instance (or every
// instance when instance < 0) over [from, to].
func (r *Recorder) Window(instance int, from, to time.Duration) WindowDoc {
	r.mu.Lock()
	total := r.seq
	retained := len(r.ticks)
	dropped := r.eventDrop
	r.mu.Unlock()
	return WindowDoc{
		TotalTicks:    total,
		Retained:      retained,
		DroppedEvents: dropped,
		From:          from,
		To:            to,
		Ticks:         r.Query(instance, from, to),
		Events:        r.EventLog(instance, from, to),
	}
}
