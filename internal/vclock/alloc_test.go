package vclock

import (
	"fmt"
	"testing"
	"time"
)

// sleepAllocs measures, from inside a process, the allocations of one
// Sleep while procs-1 other processes sleep the same step, so every
// instant readies all of them at once.
func sleepAllocs(procs int) float64 {
	c := NewVirtual()
	stop := false
	for i := 1; i < procs; i++ {
		c.Go(fmt.Sprintf("sleeper%d", i), func() {
			for !stop {
				c.Sleep(time.Microsecond)
			}
		})
	}
	var allocs float64
	c.Go("measured", func() {
		c.Sleep(time.Microsecond) // warm: every queue has seen all procs
		allocs = testing.AllocsPerRun(200, func() { c.Sleep(time.Microsecond) })
		stop = true
	})
	c.Run()
	return allocs
}

// TestSleepAllocatesNothing: a warm Sleep pushes a timer, hands the
// processor on and is resumed without allocating, alone (no goroutine
// switch at all) and among 128 live processes.
func TestSleepAllocatesNothing(t *testing.T) {
	for _, procs := range []int{1, 128} {
		if allocs := sleepAllocs(procs); allocs != 0 {
			t.Errorf("Sleep with %d live processes allocated %v times per call", procs, allocs)
		}
	}
}

// TestCondHandoffAllocatesNothing: a Signal/Wait round trip between two
// processes allocates nothing once warm.
func TestCondHandoffAllocatesNothing(t *testing.T) {
	c := NewVirtual()
	ping, pong := c.NewCond(), c.NewCond()
	turn, stop := 0, false
	var allocs float64
	c.Go("ping", func() {
		allocs = testing.AllocsPerRun(1000, func() {
			turn = 1
			pong.Signal()
			for turn == 1 {
				ping.Wait()
			}
		})
		stop = true
		pong.Signal()
	})
	c.Go("pong", func() {
		for {
			for turn != 1 && !stop {
				pong.Wait()
			}
			if stop {
				return
			}
			turn = 0
			ping.Signal()
		}
	})
	c.Run()
	if allocs != 0 {
		t.Fatalf("Cond handoff allocated %v times per round trip", allocs)
	}
}
