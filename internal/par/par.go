// Package par holds SlicePool, the exact-length buffer pool behind
// FFS-VA's tensors, image planes and frame planes, and FreeList, its
// counterpart for the headers and records that carry them.
//
// Every kernel is a serial loop. The system's parallelism is the
// paper's: its stages (SDD, the SNM and T-YOLO, the reference model)
// run at once on their devices, not one kernel across threads.
package par

// For runs body(0, n). It and SetWorkers remain only because the
// frozen benchmark harness calls them; they go with the next change
// that may edit it.
func For(n, minGrain int, body func(lo, hi int)) {
	if n > 0 {
		body(0, n)
	}
}

// SetWorkers has no effect: there is no worker pool to size.
func SetWorkers(int) {}
