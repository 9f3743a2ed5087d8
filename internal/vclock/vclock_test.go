package vclock

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	c := NewVirtual()
	var at time.Duration
	c.Go("sleeper", func() {
		c.Sleep(250 * time.Millisecond)
		at = c.Now()
	})
	c.Run()
	if at != 250*time.Millisecond {
		t.Fatalf("Now after Sleep(250ms) = %v, want 250ms", at)
	}
}

func TestVirtualSleepAccumulates(t *testing.T) {
	c := NewVirtual()
	c.Go("p", func() {
		for i := 0; i < 10; i++ {
			c.Sleep(time.Second)
		}
		if got := c.Now(); got != 10*time.Second {
			t.Errorf("Now = %v, want 10s", got)
		}
	})
	c.Run()
}

func TestVirtualZeroSleepYields(t *testing.T) {
	c := NewVirtual()
	var order []string
	c.Go("a", func() {
		order = append(order, "a1")
		c.Sleep(0)
		order = append(order, "a2")
	})
	c.Go("b", func() {
		order = append(order, "b1")
	})
	c.Run()
	want := "a1 b1 a2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestVirtualTimerOrdering(t *testing.T) {
	c := NewVirtual()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		// Later-registered processes sleep less, so wake order is the
		// reverse of registration order.
		c.Go(fmt.Sprintf("p%d", i), func() {
			c.Sleep(time.Duration(5-i) * time.Millisecond)
			order = append(order, i)
		})
	}
	c.Run()
	for j, v := range order {
		if v != 4-j {
			t.Fatalf("order = %v, want [4 3 2 1 0]", order)
		}
	}
}

func TestVirtualSameInstantFIFO(t *testing.T) {
	c := NewVirtual()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		c.Go(fmt.Sprintf("p%d", i), func() {
			c.Sleep(time.Millisecond)
			order = append(order, i)
		})
	}
	c.Run()
	for j, v := range order {
		if v != j {
			t.Fatalf("same-instant order = %v, want ascending", order)
		}
	}
}

func TestVirtualCondProducerConsumer(t *testing.T) {
	c := NewVirtual()
	l := c.NewLocker()
	cond := c.NewCond(l)
	var buf []int
	var got []int
	const n = 100
	c.Go("producer", func() {
		for i := 0; i < n; i++ {
			c.Sleep(time.Millisecond)
			l.Lock()
			buf = append(buf, i)
			cond.Signal()
			l.Unlock()
		}
	})
	c.Go("consumer", func() {
		for len(got) < n {
			l.Lock()
			for len(buf) == 0 {
				cond.Wait()
			}
			got = append(got, buf[0])
			buf = buf[1:]
			l.Unlock()
		}
	})
	c.Run()
	if len(got) != n {
		t.Fatalf("consumed %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
	if c.Now() != n*time.Millisecond {
		t.Fatalf("final time = %v, want %v", c.Now(), n*time.Millisecond)
	}
}

func TestVirtualBroadcastWakesAll(t *testing.T) {
	c := NewVirtual()
	cond := c.NewCond(c.NewLocker())
	woke := 0
	ready := false
	for i := 0; i < 5; i++ {
		c.Go(fmt.Sprintf("w%d", i), func() {
			for !ready {
				cond.Wait()
			}
			woke++
		})
	}
	c.Go("broadcaster", func() {
		c.Sleep(time.Second)
		ready = true
		cond.Broadcast()
	})
	c.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestVirtualDeterminism(t *testing.T) {
	run := func() (time.Duration, string) {
		c := NewVirtual()
		var log []string
		cond := c.NewCond(c.NewLocker())
		queue := 0
		for i := 0; i < 3; i++ {
			i := i
			c.Go(fmt.Sprintf("prod%d", i), func() {
				for j := 0; j < 4; j++ {
					c.Sleep(time.Duration(i+1) * time.Millisecond)
					queue++
					cond.Signal()
				}
			})
		}
		c.Go("cons", func() {
			for taken := 0; taken < 12; taken++ {
				for queue == 0 {
					cond.Wait()
				}
				queue--
				log = append(log, fmt.Sprintf("%d@%v", taken, c.Now()))
			}
		})
		c.Run()
		return c.Now(), strings.Join(log, ",")
	}
	t1, l1 := run()
	t2, l2 := run()
	if t1 != t2 || l1 != l2 {
		t.Fatalf("non-deterministic: (%v,%q) vs (%v,%q)", t1, l1, t2, l2)
	}
}

func TestVirtualDeadlockPanics(t *testing.T) {
	c := NewVirtual()
	cond := c.NewCond(c.NewLocker())
	c.Go("stuck", func() {
		cond.Wait()
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "stuck") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run()
}

// TestVirtualRegistryForgetsFinishedProcesses: the diagnostics registry
// holds live processes only — empty after 10,000 processes have run to
// completion — and the deadlock report, which reads it, still names
// exactly the stuck ones, in the same words.
func TestVirtualRegistryForgetsFinishedProcesses(t *testing.T) {
	c := NewVirtual()
	c.Go("root", func() {
		for i := 0; i < 10000; i++ {
			c.Go(fmt.Sprintf("short%d", i), func() { c.Sleep(time.Duration(i%7) * time.Millisecond) })
			if i%100 == 0 {
				c.Sleep(time.Millisecond)
			}
		}
	})
	c.Run()
	if n := len(c.procs); n != 0 {
		t.Fatalf("registry holds %d processes after all finished, want 0", n)
	}

	c = NewVirtual()
	cond := c.NewCond(c.NewLocker())
	for _, name := range []string{"b-stuck", "a-stuck"} {
		c.Go(name, func() {
			c.Sleep(5 * time.Millisecond)
			cond.Wait()
		})
	}
	for i := 0; i < 1000; i++ {
		c.Go(fmt.Sprintf("done%d", i), func() { c.Sleep(time.Millisecond) })
	}
	defer func() {
		const want = "vclock: deadlock at t=5ms: 2 live process(es) blocked with no pending timers: a-stuck(waiting), b-stuck(waiting)"
		if r := recover(); r != want {
			t.Fatalf("deadlock report %q, want %q", r, want)
		}
		if n := len(c.procs); n != 2 {
			t.Errorf("registry holds %d processes at the deadlock, want the 2 stuck ones", n)
		}
	}()
	c.Run()
}

func TestVirtualNestedGo(t *testing.T) {
	c := NewVirtual()
	total := 0
	c.Go("root", func() {
		for i := 0; i < 3; i++ {
			i := i
			c.Go(fmt.Sprintf("child%d", i), func() {
				c.Sleep(time.Duration(i) * time.Millisecond)
				total++
			})
		}
	})
	c.Run()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
}

func TestVirtualRunTwicePanics(t *testing.T) {
	c := NewVirtual()
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	c.Run()
}

func TestVirtualSleepOutsideProcessPanics(t *testing.T) {
	c := NewVirtual()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Sleep outside process")
		}
	}()
	c.Sleep(time.Second)
}

func TestVirtualNegativeSleepYields(t *testing.T) {
	c := NewVirtual()
	c.Go("p", func() {
		c.Sleep(-time.Second)
		if c.Now() != 0 {
			t.Errorf("negative sleep advanced time to %v", c.Now())
		}
	})
	c.Run()
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	if c.IsVirtual() {
		t.Fatal("RealClock.IsVirtual() = true")
	}
	start := c.Now()
	done := false
	c.Go("worker", func() {
		c.Sleep(10 * time.Millisecond)
		done = true
	})
	c.Run()
	if !done {
		t.Fatal("Run returned before process finished")
	}
	if c.Now()-start < 10*time.Millisecond {
		t.Fatalf("elapsed %v, want >= 10ms", c.Now()-start)
	}
}

func TestRealCondWorksWithMutex(t *testing.T) {
	c := NewReal()
	l := c.NewLocker()
	if _, ok := l.(*sync.Mutex); !ok {
		t.Fatalf("RealClock.NewLocker() = %T, want *sync.Mutex", l)
	}
	cond := c.NewCond(l)
	fired := false
	c.Go("waiter", func() {
		l.Lock()
		for !fired {
			cond.Wait()
		}
		l.Unlock()
	})
	c.Go("signaler", func() {
		c.Sleep(5 * time.Millisecond)
		l.Lock()
		fired = true
		cond.Signal()
		l.Unlock()
	})
	c.Run()
}

func TestVirtualYield(t *testing.T) {
	c := NewVirtual()
	var order []string
	c.Go("a", func() {
		order = append(order, "a1")
		c.Yield()
		order = append(order, "a2")
	})
	c.Go("b", func() {
		order = append(order, "b")
	})
	c.Run()
	if got := strings.Join(order, " "); got != "a1 b a2" {
		t.Fatalf("order = %q, want \"a1 b a2\"", got)
	}
}

func TestVirtualManyProcessesStress(t *testing.T) {
	c := NewVirtual()
	const n = 200
	count := 0
	for i := 0; i < n; i++ {
		i := i
		c.Go(fmt.Sprintf("p%d", i), func() {
			for j := 0; j < 50; j++ {
				c.Sleep(time.Duration(1+i%7) * time.Microsecond)
			}
			count++
		})
	}
	c.Run()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}
