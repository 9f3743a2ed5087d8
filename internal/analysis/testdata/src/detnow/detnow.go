// Package detnowfix seeds detnow violations: wall-clock reads and
// global math/rand draws that would break deterministic virtual-time
// replay, next to the sanctioned clock-pure forms.
package detnowfix

import (
	"math/rand"
	"runtime"
	"time"

	"ffsva/internal/vclock"
)

// bad reads the wall clock and the global rand source.
func bad() time.Duration {
	start := time.Now()                // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond)       // want `wall-clock time\.Sleep`
	<-time.After(time.Millisecond)     // want `wall-clock time\.After`
	n := rand.Intn(10)                 // want `global rand\.Intn`
	rand.Shuffle(n, func(i, j int) {}) // want `global rand\.Shuffle`
	return time.Since(start)           // want `wall-clock time\.Since`
}

// good flows time through the clock abstraction and randomness through a
// seeded per-caller source; Duration arithmetic stays legal everywhere.
func good(clk *vclock.VirtualClock) int {
	clk.Sleep(2 * time.Millisecond)
	rng := rand.New(rand.NewSource(42))
	if clk.Now() > time.Second {
		return 0
	}
	return rng.Intn(10)
}

// resized mutates the global scheduler width — which silently reshapes
// how every concurrent kernel in the process shards — while the
// argumentless-zero read stays legal.
func resized() int {
	runtime.GOMAXPROCS(4)        // want `runtime\.GOMAXPROCS mutation`
	runtime.GOMAXPROCS(1 * 2)    // want `runtime\.GOMAXPROCS mutation`
	return runtime.GOMAXPROCS(0) // read-only form: legal
}

// suppressed documents an accepted wall-clock read.
func suppressed() time.Time {
	return time.Now() //lint:allow detnow fixture demonstrates a reasoned suppression
}
