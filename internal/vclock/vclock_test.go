package vclock

import (
	"fmt"
	"strings"
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
	cond := c.NewCond()
	var buf []int
	var got []int
	const n = 100
	c.Go("producer", func() {
		for i := 0; i < n; i++ {
			c.Sleep(time.Millisecond)
			buf = append(buf, i)
			cond.Signal()
		}
	})
	c.Go("consumer", func() {
		for len(got) < n {
			for len(buf) == 0 {
				cond.Wait()
			}
			got = append(got, buf[0])
			buf = buf[1:]
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
	cond := c.NewCond()
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
		cond := c.NewCond()
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
	cond := c.NewCond()
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
	cond := c.NewCond()
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

// pacedWorld runs a small producer/consumer world — timers, a condition
// variable and a process that burns burn of wall time at t=20ms — and
// returns its event log.
func pacedWorld(c *VirtualClock, burn time.Duration) string {
	var log []string
	cond := c.NewCond()
	queued := 0
	for i := 0; i < 3; i++ {
		c.Go(fmt.Sprintf("prod%d", i), func() {
			for j := 0; j < 4; j++ {
				c.Sleep(time.Duration(i+1) * 5 * time.Millisecond)
				queued++
				cond.Signal()
			}
		})
	}
	c.Go("cons", func() {
		for taken := 0; taken < 12; taken++ {
			for queued == 0 {
				cond.Wait()
			}
			queued--
			log = append(log, fmt.Sprintf("%d@%v", taken, c.Now()))
		}
	})
	c.Go("burner", func() {
		c.Sleep(20 * time.Millisecond)
		for start := time.Now(); time.Since(start) < burn; {
		}
		log = append(log, fmt.Sprintf("burnt@%v", c.Now()))
	})
	c.Run()
	return strings.Join(log, ",")
}

// TestPacedMatchesUnpaced: a paced world runs the unpaced world's event
// order at the same virtual times, takes at least its virtual span of
// wall time, and reports as host lag the wall time a process burnt
// without letting virtual time move.
func TestPacedMatchesUnpaced(t *testing.T) {
	free := NewVirtual()
	want := pacedWorld(free, 0)
	if free.HostLag() != 0 {
		t.Errorf("unpaced clock reports host lag %v", free.HostLag())
	}

	paced := NewPaced()
	start := time.Now()
	got := pacedWorld(paced, 0)
	wall := time.Since(start)
	if got != want {
		t.Fatalf("paced event log differs:\n%s\nwant:\n%s", got, want)
	}
	if paced.Now() != free.Now() {
		t.Fatalf("paced run ended at %v, unpaced at %v", paced.Now(), free.Now())
	}
	if wall < paced.Now() {
		t.Fatalf("paced run took %v of wall time for %v of virtual time", wall, paced.Now())
	}

	const burn = 50 * time.Millisecond
	burnt := NewPaced()
	if got := pacedWorld(burnt, burn); got != want {
		t.Fatalf("burning wall time changed the event log:\n%s\nwant:\n%s", got, want)
	}
	// The burn starts no earlier than 20ms of wall time and the next
	// event is due at 30ms, so the host is at least burn-10ms late.
	if burnt.HostLag() < burn-10*time.Millisecond || burnt.HostLag() <= paced.HostLag() {
		t.Fatalf("host lag %v after burning %v (%v without)", burnt.HostLag(), burn, paced.HostLag())
	}
}
