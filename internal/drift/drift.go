// Package drift detects camera-scene change, the paper's §5.5 "Scene
// Switch" limitation: the stream-specialized SDD and SNM are trained for
// one fixed viewpoint, and when "the scene changes dramatically or the
// function and position of the camera have changed, the previous
// specialized models will no longer work" — a new model must be trained.
//
// The detection signal is the SDD itself: against a stale reference
// image every frame looks changed, so the SDD's pass rate saturates near
// 1.0 for far longer than any real scene lasts. The Monitor watches a
// sliding window of SDD verdicts and raises a drift signal when the
// window saturates; the operator then retrains from freshly labeled
// frames (see train.Fit).
//
// The signal is meaningful for cameras whose TOR is not itself ~1.0; a
// stream that is busy every single frame is indistinguishable from a
// moved camera by pass rate alone, which mirrors the paper's observation
// that filtering contributes nothing at TOR 1.0 anyway.
package drift

// Config tunes the monitor.
type Config struct {
	// Window is the number of recent SDD verdicts considered. It must
	// comfortably exceed the longest plausible scene so a busy period is
	// not mistaken for a moved camera.
	Window int
	// Thresh is the pass-rate over the window that signals drift.
	Thresh float64
	// Cooldown suppresses further signals for this many frames after one
	// fires (retraining is in progress).
	Cooldown int
}

// DefaultConfig returns the monitor settings used by the examples and
// tests: a 300-frame (10 s) window saturating at 98%.
func DefaultConfig() Config {
	return Config{Window: 300, Thresh: 0.98, Cooldown: 600}
}

// Monitor consumes per-frame SDD verdicts and reports drift.
type Monitor struct {
	cfg      Config
	buf      []bool
	idx      int
	filled   bool
	passes   int
	cooldown int
	signals  int64
}

// NewMonitor creates a monitor; invalid configs fall back to defaults.
func NewMonitor(cfg Config) *Monitor {
	if cfg.Window <= 0 || cfg.Thresh <= 0 || cfg.Thresh > 1 {
		cfg = DefaultConfig()
	}
	return &Monitor{cfg: cfg, buf: make([]bool, cfg.Window)}
}

// Observe records one SDD verdict (passed = frame was NOT background)
// and reports whether a drift signal fires on this frame.
func (m *Monitor) Observe(passed bool) bool {
	if m.cooldown > 0 {
		m.cooldown--
	}
	old := m.buf[m.idx]
	m.buf[m.idx] = passed
	m.idx++
	if m.idx == len(m.buf) {
		m.idx = 0
		m.filled = true
	}
	if old {
		m.passes--
	}
	if passed {
		m.passes++
	}
	if !m.filled || m.cooldown > 0 {
		return false
	}
	if float64(m.passes)/float64(len(m.buf)) >= m.cfg.Thresh {
		m.cooldown = m.cfg.Cooldown
		m.signals++
		m.reset()
		return true
	}
	return false
}

// reset clears the window after a signal so post-retrain observations
// start fresh.
func (m *Monitor) reset() {
	for i := range m.buf {
		m.buf[i] = false
	}
	m.passes = 0
	m.idx = 0
	m.filled = false
}

// Signals reports how many drift events have fired.
func (m *Monitor) Signals() int64 { return m.signals }

// PassRate reports the current window's SDD pass rate (0 until the
// window fills).
func (m *Monitor) PassRate() float64 {
	if !m.filled {
		return 0
	}
	return float64(m.passes) / float64(len(m.buf))
}
