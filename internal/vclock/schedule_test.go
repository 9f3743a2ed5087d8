package vclock

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// scheduleGolden is the SHA-256 of scheduleWorld's event log, recorded
// with the relay scheduler (a process handed the processor back to Run,
// which picked the next one). Any change to who runs when, or at which
// virtual time, changes it; a mismatch means the scheduler changed the
// schedule — fix the scheduler, don't re-record.
const scheduleGolden = "061be8aed9973a020cf572070cf5a860eb3180ae75cda47eadd5e3681858f835"

// scheduleWorld runs a seeded program of a few hundred processes on c
// and returns the hash of its event log (process, virtual time, order)
// and the number of events. The program mixes zero, equal-instant and
// staggered sleeps, yields, condition waits woken by Signal and by
// Broadcast, nested Go, and processes that return early; every choice is
// drawn from one seeded source by whichever process runs, so the log
// also depends on the order the processes ran in. Sleeps are a few
// microseconds, so a paced clock plays it in about a millisecond.
func scheduleWorld(c *VirtualClock, seed int64) (string, int) {
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	events := 0
	logEvent := func(name, what string) {
		events++
		fmt.Fprintf(h, "%d %s %s @%d\n", events, name, what, c.Now())
	}

	const nConds = 4
	var conds [nConds]*Cond
	var gens [nConds]int
	for k := range conds {
		conds[k] = c.NewCond()
	}
	workers := 0

	var worker func(name string, steps, depth int)
	worker = func(name string, steps, depth int) {
		defer func() { workers--; logEvent(name, "done") }()
		for j := 0; j < steps; j++ {
			switch op := rng.Intn(10); op {
			case 0:
				c.Sleep(0)
				logEvent(name, "sleep0")
			case 1, 2:
				// Equal instants: every sleeper lands on a multiple of 2µs.
				c.Sleep(2*time.Microsecond - c.Now()%(2*time.Microsecond))
				logEvent(name, "sleep-aligned")
			case 3, 4:
				c.Sleep(time.Duration(1+rng.Intn(7)) * time.Microsecond)
				logEvent(name, "sleep")
			case 5:
				c.Yield()
				logEvent(name, "yield")
			case 6, 7:
				k := rng.Intn(nConds)
				for g := gens[k]; gens[k] == g; {
					conds[k].Wait()
				}
				logEvent(name, fmt.Sprintf("woke%d", k))
			case 8:
				if depth < 2 {
					workers++
					child := fmt.Sprintf("%s.%d", name, j)
					c.Go(child, func() { worker(child, 1+rng.Intn(6), depth+1) })
					logEvent(name, "spawn "+child)
				}
			case 9:
				if rng.Intn(3) == 0 {
					logEvent(name, "return")
					return
				}
			}
		}
	}

	for i := 0; i < 240; i++ {
		name := fmt.Sprintf("w%d", i)
		steps := 4 + i%13
		workers++
		c.Go(name, func() { worker(name, steps, 0) })
	}
	// Tickers move each condition's generation while any worker lives,
	// waking one waiter (Signal) or all of them (Broadcast).
	for k := 0; k < nConds; k++ {
		name := fmt.Sprintf("tick%d", k)
		c.Go(name, func() {
			for n := 0; workers > 0; n++ {
				c.Sleep(time.Duration(1+k) * time.Microsecond)
				gens[k]++
				if n%3 == 2 {
					conds[k].Broadcast()
					logEvent(name, "broadcast")
				} else {
					conds[k].Signal()
					logEvent(name, "signal")
				}
			}
			conds[k].Broadcast()
			logEvent(name, "last")
		})
	}
	c.Run()
	logEvent("end", "run")
	return hex.EncodeToString(h.Sum(nil)), events
}

// TestScheduleGolden pins the scheduler's event order and timings on a
// virtual and on a paced clock.
func TestScheduleGolden(t *testing.T) {
	for _, clk := range []struct {
		name string
		new  func() *VirtualClock
	}{{"virtual", NewVirtual}, {"paced", NewPaced}} {
		t.Run(clk.name, func(t *testing.T) {
			c := clk.new()
			got, events := scheduleWorld(c, 35)
			if events < 2000 {
				t.Fatalf("schedule world logged only %d events", events)
			}
			if got != scheduleGolden {
				t.Fatalf("schedule hash %s (%d events, ended at %v), want %s", got, events, c.Now(), scheduleGolden)
			}
		})
	}
}
