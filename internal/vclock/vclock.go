// Package vclock is the one clock every timed component of FFS-VA runs
// on (queues, devices, pipeline stages, the cluster manager): a
// deterministic, cooperative discrete-event scheduler. It reproduces the
// paper's GPU-scale throughput and latency numbers on any host,
// independent of the machine the reproduction runs on.
//
// A paced clock (NewPaced) runs the very same schedule, but holds each
// advance of virtual time until the wall clock has caught up with it, so
// a run can be watched live. Everything a process observes is virtual
// time either way, so a paced run's outputs are byte-identical to the
// unpaced run's; how far the host fell behind is reported separately as
// HostLag instead of being folded into the run's timings.
package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"time"
)

// VirtualClock is a deterministic cooperative discrete-event scheduler.
//
// Every process registered with Go runs on its own goroutine, but at most
// one process executes at a time: a process runs until it blocks in Sleep
// or Cond.Wait (or returns), at which point control passes back to the
// scheduler. When no process is runnable, virtual time jumps to the
// earliest pending timer. Scheduling order is FIFO with stable sequence
// numbers, so a given program produces the same event order and the same
// virtual timings on every run and every machine. Because processes never
// run at the same time, state shared between them needs no lock.
//
// Rules of use:
//
//   - Go may be called before Run from the owning goroutine, and at any
//     point from a running process.
//   - Sleep, Now and Cond operations may only be called from a running
//     process once Run has started.
//   - Run is called exactly once and returns when all processes finished.
//
// If all live processes are blocked on condition variables and no timer is
// pending, the world cannot make progress; Run panics with a report naming
// each blocked process. This converts pipeline deadlocks into loud,
// debuggable failures instead of hangs.
type VirtualClock struct {
	now     time.Duration
	seq     int64
	ready   []*vproc
	timers  timerHeap
	cur     *vproc
	live    int
	back    chan struct{} // process -> scheduler handoff
	started bool
	// procs is the registry of live processes, for diagnostics: a
	// process leaves it when it returns, so a long run's churn of short
	// processes does not accumulate.
	procs []*vproc

	// paced holds every advance of virtual time to t until t of wall
	// time has passed since Run began at wall0 (NewPaced); hostLag is the
	// furthest the wall had already passed an advance's target.
	paced   bool
	wall0   time.Time
	hostLag time.Duration
}

// vproc is one cooperative process.
type vproc struct {
	name   string
	resume chan struct{}
	state  string // diagnostic: "ready", "running", "sleeping", "waiting:<cond>"
	slot   int    // index in the clock's procs
}

type timerEntry struct {
	at  time.Duration
	seq int64
	p   *vproc
}

type timerHeap []timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}

// NewVirtual returns a VirtualClock at time zero with no processes. Its
// Run takes only the host time the processes need.
func NewVirtual() *VirtualClock {
	return &VirtualClock{back: make(chan struct{})}
}

// NewPaced returns a VirtualClock whose Run never lets virtual time run
// ahead of wall time since Run began: the same schedule as NewVirtual,
// played in real time.
func NewPaced() *VirtualClock {
	c := NewVirtual()
	c.paced = true
	return c
}

// Now reports current virtual time.
func (c *VirtualClock) Now() time.Duration { return c.now }

// HostLag reports, for a paced clock, the furthest the wall clock had
// already run past virtual time when the scheduler came to advance it —
// how far the host fell behind the schedule — including at the end of
// Run. It is zero for an unpaced clock, and read once Run has returned.
func (c *VirtualClock) HostLag() time.Duration { return c.hostLag }

// Go registers a process. The function starts suspended and runs when the
// scheduler first picks it.
func (c *VirtualClock) Go(name string, fn func()) {
	p := &vproc{name: name, resume: make(chan struct{}), state: "ready", slot: len(c.procs)}
	c.live++
	c.ready = append(c.ready, p)
	c.procs = append(c.procs, p)
	go func() {
		<-p.resume
		fn()
		c.forget(p)
		c.live--
		c.cur = nil
		c.back <- struct{}{}
	}()
}

// forget removes a finished process from the registry by moving the
// last entry into its slot. It runs on the finishing process, which
// still holds the processor.
func (c *VirtualClock) forget(p *vproc) {
	last := c.procs[len(c.procs)-1]
	c.procs[p.slot], last.slot = last, p.slot
	c.procs[len(c.procs)-1] = nil
	c.procs = c.procs[:len(c.procs)-1]
}

// Sleep blocks the calling process for d of virtual time. A non-positive d
// still yields the processor (the process re-enters the ready queue at the
// current time), which makes Sleep(0) a deterministic yield point.
func (c *VirtualClock) Sleep(d time.Duration) {
	p := c.mustCur("Sleep")
	if d < 0 {
		d = 0
	}
	c.seq++
	heap.Push(&c.timers, timerEntry{at: c.now + d, seq: c.seq, p: p})
	p.state = "sleeping"
	c.yield(p)
}

// Yield reschedules the calling process at the back of the ready queue
// without advancing time.
func (c *VirtualClock) Yield() {
	p := c.mustCur("Yield")
	p.state = "ready"
	c.ready = append(c.ready, p)
	c.yield(p)
}

// yield transfers control to the scheduler and blocks until resumed.
func (c *VirtualClock) yield(p *vproc) {
	c.cur = nil
	c.back <- struct{}{}
	<-p.resume
}

func (c *VirtualClock) mustCur(op string) *vproc {
	if c.cur == nil {
		panic("vclock: " + op + " called from outside a clock process")
	}
	return c.cur
}

// Cond is a condition variable integrated with the scheduler. Waiters
// must re-check their predicate in a loop.
type Cond struct {
	clk     *VirtualClock
	waiters []*vproc
}

// NewCond returns a condition variable on the clock.
func (c *VirtualClock) NewCond() *Cond { return &Cond{clk: c} }

// Wait suspends the calling process until Signal or Broadcast.
func (cd *Cond) Wait() {
	p := cd.clk.mustCur("Cond.Wait")
	p.state = "waiting"
	cd.waiters = append(cd.waiters, p)
	cd.clk.yield(p)
}

// Signal readies the longest-waiting process, if any.
func (cd *Cond) Signal() {
	if len(cd.waiters) == 0 {
		return
	}
	p := cd.waiters[0]
	cd.waiters = cd.waiters[1:]
	p.state = "ready"
	cd.clk.ready = append(cd.clk.ready, p)
}

// Broadcast readies every waiting process in wait order.
func (cd *Cond) Broadcast() {
	for _, p := range cd.waiters {
		p.state = "ready"
		cd.clk.ready = append(cd.clk.ready, p)
	}
	cd.waiters = cd.waiters[:0]
}

// Run executes processes until all have finished. It panics on deadlock
// (live processes, nothing runnable, no timers).
func (c *VirtualClock) Run() {
	if c.started {
		panic("vclock: Run called twice")
	}
	c.started = true
	if c.paced {
		c.wall0 = time.Now()
	}
	for c.live > 0 {
		if len(c.ready) == 0 {
			if c.timers.Len() == 0 {
				panic(c.deadlockReport())
			}
			e := heap.Pop(&c.timers).(timerEntry)
			if e.at > c.now {
				if c.paced {
					c.pace(e.at)
				}
				c.now = e.at
			}
			e.p.state = "ready"
			c.ready = append(c.ready, e.p)
			// Release every timer scheduled for this same instant so
			// they run in seq order before time moves again.
			for c.timers.Len() > 0 && c.timers[0].at == c.now {
				e2 := heap.Pop(&c.timers).(timerEntry)
				e2.p.state = "ready"
				c.ready = append(c.ready, e2.p)
			}
		}
		p := c.ready[0]
		c.ready = c.ready[1:]
		p.state = "running"
		c.cur = p
		p.resume <- struct{}{}
		<-c.back
	}
	if c.paced {
		c.pace(c.now)
	}
}

// pace holds the scheduler until t of wall time has passed since Run
// began, or, when the wall is already past t, records by how much.
func (c *VirtualClock) pace(t time.Duration) {
	behind := time.Since(c.wall0) - t
	if behind < 0 {
		time.Sleep(-behind)
	} else if behind > c.hostLag {
		c.hostLag = behind
	}
}

// deadlockReport builds the panic message listing stuck processes.
func (c *VirtualClock) deadlockReport() string {
	var names []string
	for _, p := range c.procs {
		names = append(names, p.name+"("+p.state+")")
	}
	sort.Strings(names)
	return fmt.Sprintf("vclock: deadlock at t=%v: %d live process(es) blocked with no pending timers: %s",
		c.now, c.live, strings.Join(names, ", "))
}
