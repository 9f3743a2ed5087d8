package core

import (
	"errors"
	"fmt"
)

// Sentinel validation errors. Config.Validate wraps them with the
// offending values, so callers branch with errors.Is and users still see
// the specifics.
var (
	// ErrBadStreams marks a non-positive stream count.
	ErrBadStreams = errors.New("core: Streams must be positive")
	// ErrBadFrames marks a non-positive per-stream frame budget.
	ErrBadFrames = errors.New("core: FramesPerStream must be positive")
	// ErrBadTOR marks a target-object ratio outside [0, 1].
	ErrBadTOR = errors.New("core: TOR must be in [0, 1]")
	// ErrBadFilterDegree marks an SNM aggressiveness outside [0, 1]
	// (paper Eq. 2 interpolates the threshold band with it).
	ErrBadFilterDegree = errors.New("core: FilterDegree must be in [0, 1]")
	// ErrBadBatchSize marks a negative SNM batch bound (zero means
	// "use the default").
	ErrBadBatchSize = errors.New("core: BatchSize must not be negative")
	// ErrBadWorkload marks an unknown workload kind.
	ErrBadWorkload = errors.New("core: unknown Workload")
	// ErrBadTolerance marks a negative T-YOLO count tolerance.
	ErrBadTolerance = errors.New("core: Tolerance must not be negative")
	// ErrBadNumberOfObjects marks a negative event-intensity threshold
	// (zero means "use the default of 1").
	ErrBadNumberOfObjects = errors.New("core: NumberOfObjects must not be negative")
	// ErrBadFault marks a planned slow, stall or crash aimed at an
	// instance the run does not have.
	ErrBadFault = errors.New("core: fault targets no instance of the run")
)

// Validate checks a configuration before any model training or stream
// generation happens, so a bad run fails in microseconds instead of
// after minutes of training. Run, RunContext, and the command-line
// front-ends all call it; exported so API users can validate eagerly.
// A single-instance run has only instance 0 for a planned slow, stall or
// crash to target.
func (c Config) Validate() error {
	return c.validate(1)
}

// validate is Validate for a run of the given number of instances.
func (c Config) validate(instances int) error {
	if c.Streams <= 0 {
		return fmt.Errorf("%w, have %d", ErrBadStreams, c.Streams)
	}
	if c.FramesPerStream <= 0 {
		return fmt.Errorf("%w, have %d", ErrBadFrames, c.FramesPerStream)
	}
	if c.TOR < 0 || c.TOR > 1 {
		return fmt.Errorf("%w, have %v", ErrBadTOR, c.TOR)
	}
	if c.FilterDegree < 0 || c.FilterDegree > 1 {
		return fmt.Errorf("%w, have %v", ErrBadFilterDegree, c.FilterDegree)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("%w, have %d", ErrBadBatchSize, c.BatchSize)
	}
	if c.Workload != WorkloadCar && c.Workload != WorkloadPerson {
		return fmt.Errorf("%w %d", ErrBadWorkload, int(c.Workload))
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("%w, have %d", ErrBadTolerance, c.Tolerance)
	}
	if c.NumberOfObjects < 0 {
		return fmt.Errorf("%w, have %d", ErrBadNumberOfObjects, c.NumberOfObjects)
	}
	for _, f := range c.Faults {
		if !f.StreamLevel() && (f.Instance < 0 || f.Instance >= instances) {
			return fmt.Errorf("%w: %v with %d instance(s)", ErrBadFault, f, instances)
		}
	}
	return nil
}

// streamSeed derives stream i's generator seed from the run seed with a
// splitmix64-style mixer. The previous affine derivation
// (Seed*1_000_003 + i*7919) collapsed at Seed 0 — every run with the
// zero seed produced the same stream set regardless of Seed, and stream
// 0's derived seed of 0 silently fell back to the camera template's
// default — whereas mixing spreads any (Seed, i) pair across the whole
// 63-bit space.
func streamSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z >> 1) // non-negative
	if s == 0 {
		s = 1 // 0 means "use the template default" downstream
	}
	return s
}
