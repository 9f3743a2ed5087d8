package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
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
// virtual timings on every run and every machine.
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

// NewVirtual returns a VirtualClock at time zero with no processes.
func NewVirtual() *VirtualClock {
	return &VirtualClock{back: make(chan struct{})}
}

// Now reports current virtual time.
func (c *VirtualClock) Now() time.Duration { return c.now }

// IsVirtual reports true.
func (c *VirtualClock) IsVirtual() bool { return true }

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

// NewLocker returns a no-op locker: cooperative scheduling already
// guarantees mutual exclusion between processes.
func (c *VirtualClock) NewLocker() sync.Locker { return nopLocker{} }

type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// NewCond returns a condition variable integrated with the scheduler. The
// locker argument is ignored (see NewLocker).
func (c *VirtualClock) NewCond(l sync.Locker) Cond {
	_ = l
	return &vcond{clk: c}
}

type vcond struct {
	clk     *VirtualClock
	waiters []*vproc
}

// Wait suspends the calling process until Signal or Broadcast.
func (cd *vcond) Wait() {
	p := cd.clk.mustCur("Cond.Wait")
	p.state = "waiting"
	cd.waiters = append(cd.waiters, p)
	cd.clk.yield(p)
}

// Signal readies the longest-waiting process, if any.
func (cd *vcond) Signal() {
	if len(cd.waiters) == 0 {
		return
	}
	p := cd.waiters[0]
	cd.waiters = cd.waiters[1:]
	p.state = "ready"
	cd.clk.ready = append(cd.clk.ready, p)
}

// Broadcast readies every waiting process in wait order.
func (cd *vcond) Broadcast() {
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
	for c.live > 0 {
		if len(c.ready) == 0 {
			if c.timers.Len() == 0 {
				panic(c.deadlockReport())
			}
			e := heap.Pop(&c.timers).(timerEntry)
			if e.at > c.now {
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
