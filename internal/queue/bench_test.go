package queue

import (
	"testing"

	"ffsva/internal/vclock"
)

func BenchmarkVirtualPipelineHop(b *testing.B) {
	// One producer/consumer hop per item under the virtual scheduler;
	// measures the cooperative context-switch cost that bounds simulated
	// pipeline speed.
	clk := vclock.NewVirtual()
	q := New[int](clk, "bench", 8)
	n := b.N
	clk.Go("producer", func() {
		for i := 0; i < n; i++ {
			q.Put(i)
		}
		q.Close()
	})
	clk.Go("consumer", func() {
		for {
			if _, ok := q.Get(); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	clk.Run()
}
