// Package interprocfix seeds the cross-function cases only ownership
// summaries can decide. Every `// want` here is satisfied in
// interprocedural mode; the companion test also runs the intra-function
// mode over this file and asserts the contrast:
//
//   - a "MARK:interproc-only" comment marks the NEXT line as a true
//     positive that intra mode misses entirely;
//   - a trailing "MARK:intra-fp" comment marks a line intra mode flags
//     as a false positive that the summaries correctly clear.
package interprocfix

import (
	"ffsva/internal/frame"
	"ffsva/internal/nn"
)

// ---- helpers the summaries classify ----

// observe only inspects the frame: borrowed.
func observe(f *frame.Frame) int64 {
	return f.Seq
}

// finish matches the intra-mode name heuristic for an ownership sink but
// in fact only borrows the frame, two calls deep (finish → observe).
// This is the PR-8 leak class the blanket escape-via-call assumption
// waves through.
func finish(f *frame.Frame) {
	_ = observe(f)
}

// swallow really does consume its frame on every path.
func swallow(f *frame.Frame) {
	f.Release()
}

// clamp returns its parameter: ownership follows the result.
func clamp(t *nn.Tensor) *nn.Tensor {
	for i := range t.Data {
		if t.Data[i] > 1 {
			t.Data[i] = 1
		}
	}
	return t
}

// ---- true positives only interprocedural analysis catches ----

// badHelperSwallows looks clean to intra mode: finish(f) matches the
// sink name heuristic. The summary proves finish merely borrows f.
func badHelperSwallows() {
	// MARK:interproc-only
	f := frame.NewPooled(8, 8) // want `not released on every path`
	finish(f)
}

// ---- false positives the summaries clear ----

// goodHelperReleases is clean: swallow's summary is consumed-on-every-
// path. Intra mode cannot see that and reports a leak here.
func goodHelperReleases() {
	f := frame.NewPooled(8, 8) // MARK:intra-fp
	swallow(f)
}

// goodReturnedTransfer is clean: clamp returns its parameter, so the
// reassignment is the same live value flowing back, not an overwrite.
// Intra mode reports an overwrite leak here.
func goodReturnedTransfer() {
	t := nn.GetTensor(4) // MARK:intra-fp
	t = clamp(t)
	t.Release()
}

// goodTransferToNewName is clean for the same reason with a fresh
// destination: tracking follows the result into u.
func goodTransferToNewName() {
	t := nn.GetTensor(4)
	u := clamp(t)
	u.Release()
}

// badDiscardedReturn leaks: clamp hands the tensor back, but the result
// is dropped on the floor, so nothing ever releases it. Both modes see
// a leak; interproc mode knows precisely why.
func badDiscardedReturn() {
	t := nn.GetTensor(4) // want `not released on every path`
	clamp(t)
}
