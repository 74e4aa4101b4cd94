// Package sim executes stateless protocols under a schedule and detects
// stabilization. It distinguishes the paper's two legitimacy notions
// (§2.2): label stabilization (the labeling sequence reaches a fixed point
// of every reaction function) and output stabilization (every node's
// output sequence converges, while labels may keep changing — e.g. the
// D-counter keeps counting forever underneath a stable output).
//
// Run is a frontend to internal/des: the schedule drives the runtime as a
// des.ScheduleDaemon, and Run maps its outcome into a Result.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"stateless/internal/core"
	"stateless/internal/des"
	"stateless/internal/obs"
	"stateless/internal/par"
	"stateless/internal/schedule"
)

// Status classifies the end state of a run.
type Status int

// Run outcomes.
const (
	// LabelStable: the labeling reached a fixed point of every reaction.
	LabelStable Status = iota + 1
	// OutputStable: the labeling entered a cycle on which every node's
	// output is constant (detected exactly under deterministic schedules
	// via configuration-cycle detection).
	OutputStable
	// Oscillating: the labeling entered a cycle on which some output (or
	// the labels, when only label stabilization is demanded) keeps
	// changing.
	Oscillating
	// Exhausted: MaxSteps elapsed without a verdict (cycle detection
	// disabled or cycle longer than the horizon).
	Exhausted
)

var statusNames = [...]string{LabelStable: "label-stable", OutputStable: "output-stable",
	Oscillating: "oscillating", Exhausted: "exhausted"}

// String implements fmt.Stringer.
func (s Status) String() string {
	if s < LabelStable || s > Exhausted {
		return fmt.Sprintf("Status(%d)", int(s))
	}
	return statusNames[s]
}

// Options configures a run.
type Options struct {
	// MaxSteps bounds the number of time steps (0 means DefaultMaxSteps).
	MaxSteps int
	// Context, when non-nil, makes the run abortable: cancellation
	// surfaces as ErrCanceled.
	Context context.Context
	// DetectCycles enables configuration-cycle detection by interning
	// labelings. It is sound only under a schedule.Periodic schedule
	// (Synchronous, RoundRobin, Scripted): the runtime keys labelings at
	// phase 0 of the schedule's period. Run rejects any other schedule
	// with ErrAperiodic.
	DetectCycles bool
	// Metrics, when non-nil, receives the run's outcome section (see
	// Result.Record), once per run.
	Metrics *obs.Registry
}

// DefaultMaxSteps is the step bound when Options.MaxSteps is zero.
const DefaultMaxSteps = 1 << 20

// Result reports how a run ended.
type Result struct {
	Status Status
	// Steps is the number of time steps executed.
	Steps int
	// StabilizedAt is the first step after which the labeling never
	// changed again (label stabilization) or after which all outputs were
	// constant (output stabilization); -1 when not stabilized.
	StabilizedAt int
	// CycleLen is the detected configuration-cycle length (0 if none).
	CycleLen int
	// Final is the last configuration.
	Final core.Config
	// Outputs are the node outputs at the end of the run. For
	// OutputStable runs these are the converged outputs.
	Outputs []core.Bit
}

// ErrBadInput is returned when the input vector length mismatches the graph.
var ErrBadInput = errors.New("sim: input length must equal node count")

// ErrBadSchedule is returned for a periodic schedule with a period below
// 1, or an activation set naming a node outside the graph.
var ErrBadSchedule = errors.New("sim: malformed schedule")

// ErrAperiodic is returned when DetectCycles is set under a schedule that
// is not schedule.Periodic: a recurring labeling proves no cycle there.
var ErrAperiodic = errors.New("sim: cycle detection needs a periodic schedule")

// ErrCanceled is returned when Options.Context is canceled mid-run; it
// wraps the context error, so errors.Is works against both.
var ErrCanceled = errors.New("sim: run canceled")

// Simulator metric names (see Options.Metrics and Result.Record).
const (
	MetricRuns         = "sim/runs"
	MetricSteps        = "sim/steps"
	MetricStabilizedAt = "sim/stabilized_at"
	MetricCycleLen     = "sim/cycle_len"
	// MetricStatusPrefix + Status.String() counts runs per outcome.
	MetricStatusPrefix = "sim/status/"
)

// stabBounds buckets rounds-to-stabilize and cycle lengths.
var stabBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// Record attaches the run's outcome to m (no-op when nil): run/step and
// per-status counters, rounds-to-stabilize and cycle-length histograms.
func (r Result) Record(m *obs.Registry) {
	if m == nil {
		return
	}
	m.Counter(MetricRuns).Inc()
	m.Counter(MetricSteps).Add(int64(r.Steps))
	m.Counter(MetricStatusPrefix + r.Status.String()).Inc()
	if r.StabilizedAt >= 0 {
		m.Histogram(MetricStabilizedAt, stabBounds...).Observe(int64(r.StabilizedAt))
	}
	if r.CycleLen > 0 {
		m.Histogram(MetricCycleLen, stabBounds...).Observe(int64(r.CycleLen))
	}
}

// Run executes protocol p on input x from initial labeling l0 under sched.
func Run(p *core.Protocol, x core.Input, l0 core.Labeling, sched schedule.Schedule, opts Options) (Result, error) {
	g := p.Graph()
	if len(x) != g.N() {
		return Result{}, fmt.Errorf("%w: got %d want %d", ErrBadInput, len(x), g.N())
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	if maxSteps < 0 {
		return Result{}, fmt.Errorf("sim: MaxSteps %d is negative", maxSteps)
	}
	if _, ok := sched.(schedule.Periodic); !ok && opts.DetectCycles {
		return Result{}, fmt.Errorf("%w: %T", ErrAperiodic, sched)
	}
	d, err := des.FromSchedule(sched, g.N(), maxSteps)
	if err != nil { // a period below 1
		return Result{}, fmt.Errorf("%w: period %d", ErrBadSchedule, sched.(schedule.Periodic).Period())
	}
	// des.New rejects a labeling of the wrong length or outside Σ.
	rt, err := des.New(p, x, l0, d, des.Config{DetectCycles: opts.DetectCycles})
	if err != nil {
		return Result{}, err
	}
	res, err := rt.Run(opts.Context, uint64(maxSteps))
	if errors.Is(err, des.ErrCanceled) {
		return Result{}, fmt.Errorf("%w: %w", ErrCanceled, opts.Context.Err())
	}
	if err != nil {
		return Result{}, err
	}

	// The labeling is first a fixed point, and the run label-stable, the
	// round after its last change, even when the runtime went on to drain
	// its queue or saw the labeling recur.
	labels, now := rt.Labels(), rt.Now()
	last := int(res.StabilizedAt / des.TicksPerRound)
	var out Result
	if last < maxSteps && (res.Stabilized || core.IsStable(p, x, labels)) {
		out = Result{
			Status:       LabelStable,
			Steps:        last + 1,
			StabilizedAt: last,
			Final:        core.Config{Labels: labels, Outputs: rt.OutputsAt(uint64(last+1) * des.TicksPerRound)},
		}
		// A drained queue leaves every node reacted to the final labeling.
		if res.Stabilized {
			out.Outputs = rt.Outputs() // the runtime is dropped
		} else {
			out.Outputs = core.StableOutputs(p, x, labels)
		}
	} else {
		out = Result{
			Status:       Exhausted,
			Steps:        maxSteps,
			StabilizedAt: -1,
			Final:        core.Config{Labels: labels, Outputs: rt.OutputsAt(now)},
			Outputs:      rt.Outputs(),
		}
		if res.CycleLen > 0 { // followed once more, back to the recurrence
			out.Status = OutputStable
			if res.OutputChangedAt > res.CycleAt*des.TicksPerRound {
				out.Status = Oscillating
			}
			out.Steps, out.CycleLen = int(res.CycleAt), int(res.CycleLen)
			out.StabilizedAt = out.Steps - out.CycleLen
		}
	}
	if step, v := d.Bad(); step > 0 && step <= out.Steps {
		return Result{}, fmt.Errorf("%w: step %d activates node %d of %d", ErrBadSchedule, step, v, g.N())
	}
	out.Record(opts.Metrics)
	return out, nil
}

// RunSynchronous is a convenience wrapper: synchronous schedule with cycle
// detection, the setting of all Part II results.
func RunSynchronous(p *core.Protocol, x core.Input, l0 core.Labeling, maxSteps int) (Result, error) {
	return Run(p, x, l0, schedule.Synchronous{N: p.Graph().N()}, Options{MaxSteps: maxSteps, DetectCycles: true})
}

// RoundComplexity measures max over the given initial labelings and inputs
// of the synchronous stabilization time — an empirical estimate of R_n
// (§2.3). The sweep fans out over all inputs × labelings on a bounded
// worker pool of the given size (workers <= 0 means GOMAXPROCS); each run
// polls ctx (nil means never canceled), and cancellation aborts the sweep
// with ErrCanceled. check, when non-nil, receives each result for
// validation; it may be called concurrently and must be safe for that. The
// returned error is deterministic (lowest failing sweep index) regardless
// of worker count.
func RoundComplexity(ctx context.Context, p *core.Protocol, inputs []core.Input, labelings []core.Labeling, maxSteps, workers int, check func(core.Input, Result) error) (int, error) {
	at := make([]int, len(inputs)*len(labelings))
	err := par.ForEach(len(at), workers, func(i int) error {
		x := inputs[i/len(labelings)]
		l0 := labelings[i%len(labelings)]
		res, err := Run(p, x, l0, schedule.Synchronous{N: p.Graph().N()},
			Options{MaxSteps: maxSteps, DetectCycles: true, Context: ctx})
		if err != nil {
			return err
		}
		if res.Status != LabelStable && res.Status != OutputStable {
			return fmt.Errorf("sim: input %s: %v after %d steps", x, res.Status, res.Steps)
		}
		if check != nil {
			if err := check(x, res); err != nil {
				return err
			}
		}
		at[i] = res.StabilizedAt
		return nil
	})
	if err != nil {
		return 0, err
	}
	return slices.Max(append(at, 0)), nil // 0 for an empty sweep
}
