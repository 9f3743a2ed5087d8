package queue

import (
	"fmt"
	"testing"
	"time"

	"ffsva/internal/vclock"
)

// These tests run many clock processes against one queue, jittered by
// small virtual sleeps so producers, consumers, Close and the stats
// readers interleave at every blocking point the queue has.

// jitter is a process's deterministic pause before its i-th operation.
func jitter(p, i int) time.Duration { return time.Duration((p*7+i*3)%5) * time.Microsecond }

func TestConcurrentProducersConsumers(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "conc", 8)
	const producers, perProducer, consumers = 8, 500, 4

	for p := 0; p < producers; p++ {
		clk.Go(fmt.Sprintf("producer%d", p), func() {
			for i := 0; i < perProducer; i++ {
				clk.Sleep(jitter(p, i))
				if !q.Put(p*perProducer + i) {
					t.Errorf("Put failed on open queue")
					return
				}
			}
		})
	}
	var popped []int
	for c := 0; c < consumers; c++ {
		clk.Go(fmt.Sprintf("consumer%d", c), func() {
			for i := 0; ; i++ {
				v, ok := q.Get()
				if !ok {
					return
				}
				popped = append(popped, v)
				clk.Sleep(2 * jitter(c, i))
			}
		})
	}
	clk.Go("closer", func() {
		for q.Stats().Puts < producers*perProducer {
			clk.Sleep(time.Millisecond)
		}
		q.Close()
	})
	clk.Run()

	// Every item exactly once, and each producer's items in put order.
	seen := make([]bool, producers*perProducer)
	next := make([]int, producers)
	for _, v := range popped {
		if seen[v] {
			t.Fatalf("item %d consumed twice", v)
		}
		seen[v] = true
		p, i := v/perProducer, v%perProducer
		if i != next[p] {
			t.Fatalf("producer %d: item %d popped before item %d", p, i, next[p])
		}
		next[p]++
	}
	if len(popped) != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", len(popped), producers*perProducer)
	}
	st := q.Stats()
	if st.Puts != producers*perProducer || st.Gets != producers*perProducer {
		t.Fatalf("stats puts/gets = %d/%d, want %d", st.Puts, st.Gets, producers*perProducer)
	}
	if st.MaxDepth > q.Cap() {
		t.Fatalf("max depth %d exceeded capacity %d", st.MaxDepth, q.Cap())
	}
	if st.BlockedPuts == 0 {
		t.Fatal("no producer ever blocked on the full queue; the test is vacuous")
	}
	if !st.Closed || st.Depth != 0 {
		t.Fatalf("final stats: closed=%v depth=%d", st.Closed, st.Depth)
	}
}

// TestConcurrentCloseAccounting closes the queue while producers are
// blocked on it and verifies the ClosedPuts ledger: every attempted item
// is either delivered to a consumer exactly once or counted as a closed
// put.
func TestConcurrentCloseAccounting(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "close", 4)
	const producers, perProducer = 8, 300

	accepted := make(map[int]bool)
	rejected := 0
	for p := 0; p < producers; p++ {
		clk.Go(fmt.Sprintf("producer%d", p), func() {
			for i := 0; i < perProducer; i++ {
				clk.Sleep(jitter(p, i))
				v := p*perProducer + i
				if q.Put(v) {
					accepted[v] = true
				} else {
					rejected++
				}
			}
		})
	}
	drained := make(map[int]bool)
	clk.Go("consumer", func() {
		for i := 0; ; i++ {
			v, ok := q.Get()
			if !ok {
				return
			}
			if drained[v] {
				t.Errorf("item %d consumed twice", v)
			}
			drained[v] = true
			if len(drained) == producers*perProducer/2 {
				q.Close()
			}
			clk.Sleep(jitter(producers, i))
		}
	})
	clk.Run()

	if len(accepted)+rejected != producers*perProducer {
		t.Fatalf("accepted %d + rejected %d != attempted %d", len(accepted), rejected, producers*perProducer)
	}
	if rejected == 0 {
		t.Fatal("no Put was rejected by the close; the test is vacuous")
	}
	if len(drained) != len(accepted) {
		t.Fatalf("drained %d != accepted %d: items lost or invented", len(drained), len(accepted))
	}
	for v := range drained {
		if !accepted[v] {
			t.Fatalf("item %d drained but never accepted", v)
		}
	}
	st := q.Stats()
	if st.ClosedPuts != int64(rejected) {
		t.Fatalf("stats.ClosedPuts = %d, want %d", st.ClosedPuts, rejected)
	}
	if st.Puts != st.Gets || st.Puts+st.ClosedPuts != producers*perProducer {
		t.Fatalf("stats puts %d, gets %d, closed puts %d for %d attempted",
			st.Puts, st.Gets, st.ClosedPuts, producers*perProducer)
	}
}

// TestConcurrentStatsReaders samples the observability accessors from
// reader processes while the queue is in motion: every sample must agree
// with itself and with the accessors.
func TestConcurrentStatsReaders(t *testing.T) {
	clk := vclock.NewVirtual()
	q := New[int](clk, "stats", 6)
	samples := 0
	for r := 0; r < 3; r++ {
		clk.Go(fmt.Sprintf("reader%d", r), func() {
			for i := 0; !q.Drained(); i++ {
				st := q.Stats()
				switch {
				case st.Depth < 0 || st.Depth > st.Cap || st.Cap != q.Cap():
					t.Errorf("inconsistent stats: %+v", st)
				case int64(st.Depth) != st.Puts-st.Gets:
					t.Errorf("depth %d but %d puts - %d gets", st.Depth, st.Puts, st.Gets)
				case st.Depth != q.Len() || (q.Len() >= q.Cap()) != (st.Depth >= st.Cap):
					t.Errorf("stats %+v disagree with Len %d / Cap %d", st, q.Len(), q.Cap())
				case st.Closed != q.Closed() || q.Drained() != (st.Closed && st.Depth == 0):
					t.Errorf("stats %+v disagree with Closed %v / Drained %v", st, q.Closed(), q.Drained())
				}
				samples++
				clk.Sleep(jitter(r, i) + time.Microsecond)
			}
		})
	}
	clk.Go("producer", func() {
		for i := 0; i < 2000; i++ {
			clk.Sleep(jitter(3, i))
			if i%3 == 0 {
				q.TryPut(i)
			} else {
				q.Put(i)
			}
		}
		q.Close()
	})
	clk.Go("consumer", func() {
		for i := 0; ; i++ {
			if _, ok := q.Get(); !ok {
				return
			}
			clk.Sleep(jitter(4, i))
		}
	})
	clk.Run()
	if samples < 1000 {
		t.Fatalf("%d stats samples while the queue moved, want at least 1000", samples)
	}
}
