package analysis

import (
	"go/ast"
)

// detnowAllowedPkgs are whole packages allowed to touch the wall clock
// or, by extension, ambient nondeterminism. Keyed by module-relative
// package path; the value is the justification (shown in -list).
//
// Everything else must take the *vclock.VirtualClock (time) and a seeded
// *rand.Rand (randomness), so simulations replay bit-identically.
var detnowAllowedPkgs = map[string]string{
	// The clock itself: pacing is its one read of wall time, which
	// holds the scheduler back and never reaches virtual time.
	"internal/vclock": "the paced clock's one wall read, which only holds the scheduler back",
	// ffsbench's tables are virtual-clock results; its only wall reads
	// are the run's start stamp and each job's "(… took …)" line, which
	// results-check treats as volatile.
	"cmd/ffsbench": "table generator stamps its start time and each job's wall time",
	// The observability endpoint serves HTTP outside the simulation;
	// net/http stamps Date response headers (and enforces read-header
	// timeouts) from the wall clock. Pipeline state still reaches it
	// only as pushed virtual-clock snapshots.
	"internal/obs": "HTTP server; wall clock feeds Date headers and socket timeouts only",
}

// detnowTimeFuncs are the time package functions that read or schedule
// against the wall clock. time.Duration arithmetic and constants stay
// legal everywhere.
var detnowTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Since": true, "Until": true, "Tick": true, "NewTicker": true,
	"NewTimer": true,
}

// detnowRandFuncs are the math/rand (and v2) package-level functions
// that draw from the global source. rand.New/NewSource/NewZipf — the
// seeded-constructor path — remain legal.
var detnowRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"Uint": true,
}

// DetNow forbids wall-clock reads (time.Now/Sleep/After/...), global
// math/rand draws, and runtime.GOMAXPROCS mutations outside
// internal/vclock and the explicit allowlist. Every
// deterministic-simulation package must stay clock-pure: time flows
// only through the virtual clock and randomness only through seeded
// *rand.Rand values, or virtual-time replays stop being bit-identical.
// GOMAXPROCS(0) reads stay legal everywhere; setting it reshapes
// scheduling under every other goroutine in the process, so no package
// may (the benchmark sets a child's width through its environment).
var DetNow = &Analyzer{
	Name: "detnow",
	Doc:  "no wall clock, global math/rand, or GOMAXPROCS mutation outside internal/vclock and the allowlist (determinism)",
	Run:  runDetNow,
}

// isZeroLit reports whether args is exactly one literal 0 — the
// read-only form of runtime.GOMAXPROCS.
func isZeroLit(args []ast.Expr) bool {
	if len(args) != 1 {
		return false
	}
	lit, ok := args[0].(*ast.BasicLit)
	return ok && lit.Value == "0"
}

func runDetNow(pass *Pass) {
	for rel := range detnowAllowedPkgs {
		if pathIs(pass.PkgPath, rel) {
			return
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pkgNameOf(pass.Info, sel.X)
			if pn == nil {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if detnowTimeFuncs[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"wall-clock time.%s breaks deterministic replay; take the *vclock.VirtualClock instead",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if detnowRandFuncs[sel.Sel.Name] {
					pass.Reportf(call.Pos(),
						"global rand.%s breaks seeded reproducibility; draw from a per-caller *rand.Rand (rand.New(rand.NewSource(seed)))",
						sel.Sel.Name)
				}
			case "runtime":
				if sel.Sel.Name == "GOMAXPROCS" && !isZeroLit(call.Args) {
					pass.Reportf(call.Pos(),
						"runtime.GOMAXPROCS mutation reshapes scheduling process-wide (GOMAXPROCS(0) reads are fine)")
				}
			}
			return true
		})
	}
}
