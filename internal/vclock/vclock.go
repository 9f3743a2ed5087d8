// Package vclock is the one clock every timed component of FFS-VA runs
// on (queues, devices, pipeline stages, the cluster manager): a
// deterministic, cooperative discrete-event scheduler. It reproduces the
// paper's GPU-scale throughput and latency numbers on any host,
// independent of the machine the reproduction runs on.
//
// There is no scheduler goroutine. A process that blocks runs the
// scheduling step itself and hands the processor straight to the next
// process — one goroutine switch per virtual event, none when the next
// process is the one that blocked — and the steady state allocates
// nothing: the timer heap and the ready and waiter queues reuse their
// arrays.
//
// A paced clock (NewPaced) runs the very same schedule, but holds each
// advance of virtual time until the wall clock has caught up with it, so
// a run can be watched live. Everything a process observes is virtual
// time either way, so a paced run's outputs are byte-identical to the
// unpaced run's; how far the host fell behind is reported separately as
// HostLag instead of being folded into the run's timings.
package vclock

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ffsva/internal/fifo"
)

// VirtualClock is a deterministic cooperative discrete-event scheduler.
//
// Every process registered with Go runs on its own goroutine, but at most
// one process executes at a time: a process runs until it blocks in
// Sleep, Yield or Cond.Wait (or returns). The blocking process then picks
// the next one itself and passes the processor to it directly; when no
// process is runnable, virtual time jumps to the earliest pending timer.
// Scheduling order is FIFO with stable sequence numbers, so a given
// program produces the same event order and the same virtual timings on
// every run and every machine. Because processes never run at the same
// time, state shared between them needs no lock: each handoff is a
// channel send, which orders everything the previous process wrote before
// everything the next one reads.
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
	ready   fifo.Buffer[*vproc]
	timers  timerHeap
	cur     *vproc
	live    int
	started bool
	// done wakes Run once no process can run: every process finished,
	// or, when deadlock is set, the live ones are stuck.
	done     chan struct{}
	deadlock string
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
	name string
	// resume carries the processor to this process; it holds at most
	// the one pending handoff.
	resume chan struct{}
	state  string // diagnostic: "ready", "running", "sleeping", "waiting"
	slot   int    // index in the clock's procs
}

type timerEntry struct {
	at  time.Duration
	seq int64
	p   *vproc
}

// timerHeap is a binary min-heap of timers ordered by (at, seq). seq is
// unique, so the order is total and the pop sequence is fully determined.
type timerHeap []timerEntry

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	t := *h
	for i := len(t) - 1; i > 0; {
		parent := (i - 1) / 2
		if !t.less(i, parent) {
			break
		}
		t[i], t[parent] = t[parent], t[i]
		i = parent
	}
}

func (h *timerHeap) pop() timerEntry {
	t := *h
	top := t[0]
	last := len(t) - 1
	t[0] = t[last]
	t[last] = timerEntry{}
	t = t[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(t) && t.less(l, least) {
			least = l
		}
		if r < len(t) && t.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		t[i], t[least] = t[least], t[i]
		i = least
	}
	*h = t
	return top
}

// NewVirtual returns a VirtualClock at time zero with no processes. Its
// Run takes only the host time the processes need.
func NewVirtual() *VirtualClock {
	return &VirtualClock{done: make(chan struct{}, 1)}
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
	p := &vproc{name: name, resume: make(chan struct{}, 1), state: "ready", slot: len(c.procs)}
	c.live++
	c.ready.Push(p)
	c.procs = append(c.procs, p)
	go func() {
		<-p.resume
		fn()
		c.forget(p)
		c.live--
		c.handOff(c.next())
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
	c.timers.push(timerEntry{at: c.now + d, seq: c.seq, p: p})
	p.state = "sleeping"
	c.yield(p)
}

// Yield reschedules the calling process at the back of the ready queue
// without advancing time.
func (c *VirtualClock) Yield() {
	p := c.mustCur("Yield")
	p.state = "ready"
	c.ready.Push(p)
	c.yield(p)
}

// yield gives up the processor of p, which has just blocked: it passes
// the processor to the next process and waits to be resumed, or keeps
// running without a switch when the next process is p itself.
func (c *VirtualClock) yield(p *vproc) {
	next := c.next()
	if next == p {
		return
	}
	c.handOff(next)
	<-p.resume
}

// next is the scheduling step, run by the process giving up the
// processor (or by Run, for the first one). It returns the head of the
// ready queue, marked running; when none is ready it first moves virtual
// time to the earliest pending timer and readies every timer due at that
// instant, in seq order. It returns nil when no process can run.
func (c *VirtualClock) next() *vproc {
	if c.ready.Len() == 0 {
		if len(c.timers) == 0 {
			return nil
		}
		if at := c.timers[0].at; at > c.now {
			if c.paced {
				c.pace(at)
			}
			c.now = at
		}
		for len(c.timers) > 0 && c.timers[0].at == c.now {
			e := c.timers.pop()
			e.p.state = "ready"
			c.ready.Push(e.p)
		}
	}
	p := c.ready.Pop()
	p.state = "running"
	c.cur = p
	return p
}

// handOff passes the processor to p, or, when p is nil, back to Run: all
// processes finished, or the live ones are stuck and Run reports the
// deadlock.
func (c *VirtualClock) handOff(p *vproc) {
	if p != nil {
		p.resume <- struct{}{}
		return
	}
	c.cur = nil
	if c.live > 0 {
		c.deadlock = c.deadlockReport()
	}
	c.done <- struct{}{}
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
	waiters fifo.Buffer[*vproc]
}

// NewCond returns a condition variable on the clock.
func (c *VirtualClock) NewCond() *Cond { return &Cond{clk: c} }

// Wait suspends the calling process until Signal or Broadcast.
func (cd *Cond) Wait() {
	p := cd.clk.mustCur("Cond.Wait")
	p.state = "waiting"
	cd.waiters.Push(p)
	cd.clk.yield(p)
}

// Signal readies the longest-waiting process, if any.
func (cd *Cond) Signal() {
	if cd.waiters.Len() == 0 {
		return
	}
	p := cd.waiters.Pop()
	p.state = "ready"
	cd.clk.ready.Push(p)
}

// Broadcast readies every waiting process in wait order.
func (cd *Cond) Broadcast() {
	for cd.waiters.Len() > 0 {
		p := cd.waiters.Pop()
		p.state = "ready"
		cd.clk.ready.Push(p)
	}
}

// Run executes processes until all have finished. It starts the first
// process and then only waits: from there on the processes pass the
// processor among themselves. It panics on deadlock (live processes,
// nothing runnable, no timers).
func (c *VirtualClock) Run() {
	if c.started {
		panic("vclock: Run called twice")
	}
	c.started = true
	if c.paced {
		c.wall0 = time.Now()
	}
	if c.live > 0 {
		c.handOff(c.next())
		<-c.done
	}
	if c.deadlock != "" {
		panic(c.deadlock)
	}
	if c.paced {
		c.pace(c.now)
	}
}

// pace holds the scheduling step (and with it every process) until t of
// wall time has passed since Run began, or, when the wall is already
// past t, records by how much.
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
