// Package sim executes stateless protocols under a schedule and detects
// stabilization. It distinguishes the paper's two legitimacy notions
// (§2.2): label stabilization (the labeling sequence reaches a fixed point
// of every reaction function) and output stabilization (every node's
// output sequence converges, while labels may keep changing — e.g. the
// D-counter keeps counting forever underneath a stable output).
//
// Cycle detection keys configurations by the packed encoding of
// internal/enc (zero per-step string allocation), and RoundComplexity fans
// its inputs × labelings sweep out over a bounded worker pool whose size
// is controlled by the Workers argument of RoundComplexityWorkers (the
// plain RoundComplexity uses GOMAXPROCS).
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
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

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case LabelStable:
		return "label-stable"
	case OutputStable:
		return "output-stable"
	case Oscillating:
		return "oscillating"
	case Exhausted:
		return "exhausted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options configures a run.
type Options struct {
	// MaxSteps bounds the number of time steps (0 means DefaultMaxSteps).
	MaxSteps int
	// Context, when non-nil, makes the run abortable: cancellation is
	// polled every cancelCheckInterval steps and surfaces as ErrCanceled
	// (parity with explore.Run and des.Runtime.Run).
	Context context.Context
	// DetectCycles enables configuration-cycle detection by hashing
	// labelings. It is sound only under a schedule.Periodic schedule
	// (Synchronous, RoundRobin, Scripted): the runner keys labelings at
	// phase 0 of the schedule's period. Run rejects any other schedule
	// with ErrAperiodic.
	DetectCycles bool
	// Trace, when non-nil, receives each configuration after each step.
	Trace func(t int, cfg core.Config)
	// Metrics, when non-nil, receives the run's outcome section (see
	// Result.Record). Recording happens once per run, after the verdict;
	// the step loop itself is never instrumented.
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

// ErrBadSchedule is returned when a schedule is malformed: a periodic
// schedule with a period below 1, or an activation set naming a node
// outside the graph.
var ErrBadSchedule = errors.New("sim: malformed schedule")

// ErrAperiodic is returned when DetectCycles is set under a schedule that
// is not schedule.Periodic: a recurring labeling proves no cycle there.
var ErrAperiodic = errors.New("sim: cycle detection needs a periodic schedule")

// ErrCanceled is returned when Options.Context is canceled mid-run; it
// wraps the context error, so errors.Is works against both.
var ErrCanceled = errors.New("sim: run canceled")

// cancelCheckInterval is how many steps pass between Context polls: steps
// are microseconds-cheap, so checking every step would dominate small runs.
const cancelCheckInterval = 1024

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

// Record attaches the run's outcome to m: run/step counters, a per-status
// counter, and rounds-to-stabilize / cycle-length histograms. No-op when m
// is nil. Every simulator frontend (sim.Run and the stateful/almost-
// stateless runners' own Record methods) reports through this shape, so
// sweeps aggregate uniformly.
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
	res, err := run(p, x, l0, sched, opts)
	if err == nil {
		res.Record(opts.Metrics)
	}
	return res, err
}

func run(p *core.Protocol, x core.Input, l0 core.Labeling, sched schedule.Schedule, opts Options) (Result, error) {
	g := p.Graph()
	if len(x) != g.N() {
		return Result{}, fmt.Errorf("%w: got %d want %d", ErrBadInput, len(x), g.N())
	}
	if len(l0) != g.M() {
		return Result{}, fmt.Errorf("sim: labeling length %d, want %d edges", len(l0), g.M())
	}
	// Packed cycle keys are injective only for in-space labels.
	for i, l := range l0 {
		if !p.Space().Contains(l) {
			return Result{}, fmt.Errorf("sim: l0[%d] = %d outside %v", i, l, p.Space())
		}
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	// Activation sets are checked against the node count for the first
	// period of a periodic schedule (its set at step t depends only on
	// t mod the period, so that covers the run) and at every step of any
	// other schedule.
	checkUntil, period := maxSteps, 0
	if ps, ok := sched.(schedule.Periodic); ok {
		if period = ps.Period(); period < 1 {
			return Result{}, fmt.Errorf("%w: period %d", ErrBadSchedule, period)
		}
		checkUntil = period
	} else if opts.DetectCycles {
		return Result{}, fmt.Errorf("%w: %T", ErrAperiodic, sched)
	}
	// Cycle detection interns the packed labeling at phase 0 of every
	// period: no per-step allocation, ⌈log₂|Σ|⌉ bits per edge, and a table
	// that grows with the run. The k-th fresh key (ID k) was interned at
	// step (k+1)·period, so IDs double as step stamps.
	var (
		codec  *enc.Codec
		seen   *enc.Table
		keyBuf []uint64
	)
	if opts.DetectCycles {
		codec = enc.NewLabelCodec(p.Space(), g.M())
		seen = enc.NewTable(codec.Words(), 0)
	}

	cur := core.NewConfig(g, l0)
	next := cur.Clone()
	active := make([]graph.NodeID, 0, g.N())
	lastLabelChange := 0
	stepper := core.NewStepper(p)

	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return Result{}, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	for t := 1; t <= maxSteps; t++ {
		if opts.Context != nil && t%cancelCheckInterval == 0 {
			if err := opts.Context.Err(); err != nil {
				return Result{}, fmt.Errorf("%w: %w", ErrCanceled, err)
			}
		}
		active = sched.Activated(t, active[:0])
		if t <= checkUntil {
			if err := checkActive(active, g.N(), t); err != nil {
				return Result{}, err
			}
		}
		changed := stepper.Step(x, cur, &next, active)
		cur, next = next, cur
		if opts.Trace != nil {
			opts.Trace(t, cur)
		}
		if changed {
			lastLabelChange = t
		}
		// Label stabilization: check global fixed point (not just "this
		// step's activations changed nothing": inactive nodes might still
		// want to move).
		if !changed && stepper.IsStable(x, cur.Labels) {
			return Result{
				Status:       LabelStable,
				Steps:        t,
				StabilizedAt: lastLabelChange,
				Final:        cur, // run owns cur and is done with it
				Outputs:      core.StableOutputs(p, x, cur.Labels),
			}, nil
		}
		if opts.DetectCycles && t%period == 0 {
			keyBuf = codec.PackLabels(cur.Labels, keyBuf)
			if id, fresh := seen.Intern(keyBuf); !fresh {
				return classifyCycle(p, x, cur, sched, t, (id+1)*period)
			}
		}
	}
	return Result{
		Status:       Exhausted,
		Steps:        maxSteps,
		StabilizedAt: -1,
		Final:        cur.Clone(),
		Outputs:      append([]core.Bit(nil), cur.Outputs...),
	}, nil
}

// checkActive rejects an activation set that names a node outside [0, n).
func checkActive(active []graph.NodeID, n, t int) error {
	for _, v := range active {
		if uint(v) >= uint(n) {
			return fmt.Errorf("%w: step %d activates node %d of %d", ErrBadSchedule, t, v, n)
		}
	}
	return nil
}

// classifyCycle replays the detected cycle once to decide whether outputs
// are constant on it (OutputStable) or not (Oscillating).
func classifyCycle(p *core.Protocol, x core.Input, cur core.Config, sched schedule.Schedule, t, prev int) (Result, error) {
	g := p.Graph()
	cycleLen := t - prev
	ref := append([]core.Bit(nil), cur.Outputs...)
	probe := cur.Clone()
	next := probe.Clone()
	active := make([]graph.NodeID, 0, g.N())
	stableOutputs := true
	replay := replaySchedule{inner: sched, offset: t}
	stepper := core.NewStepper(p)
	for k := 1; k <= cycleLen; k++ {
		active = replay.Activated(k, active[:0])
		stepper.Step(x, probe, &next, active)
		probe, next = next, probe
		for v := range ref {
			if probe.Outputs[v] != ref[v] {
				stableOutputs = false
			}
		}
	}
	status := OutputStable
	if !stableOutputs {
		status = Oscillating
	}
	return Result{
		Status:       status,
		Steps:        t,
		StabilizedAt: prev,
		CycleLen:     cycleLen,
		Final:        cur.Clone(),
		Outputs:      ref,
	}, nil
}

// replaySchedule shifts a periodic schedule's clock so the cycle replay
// continues from step t.
type replaySchedule struct {
	inner  schedule.Schedule
	offset int
}

func (r replaySchedule) Activated(k int, dst []graph.NodeID) []graph.NodeID {
	return r.inner.Activated(r.offset+k, dst)
}

// RunSynchronous is a convenience wrapper: synchronous schedule with cycle
// detection, the setting of all Part II results.
func RunSynchronous(p *core.Protocol, x core.Input, l0 core.Labeling, maxSteps int) (Result, error) {
	return Run(p, x, l0, schedule.Synchronous{N: p.Graph().N()}, Options{
		MaxSteps:     maxSteps,
		DetectCycles: true,
	})
}

// ComputesOn checks that from initial labeling l0 under the synchronous
// schedule, the run output-stabilizes with every node's output equal to
// want. It returns the number of rounds to stabilization.
func ComputesOn(p *core.Protocol, x core.Input, l0 core.Labeling, want core.Bit, maxSteps int) (int, error) {
	res, err := RunSynchronous(p, x, l0, maxSteps)
	if err != nil {
		return 0, err
	}
	if res.Status != LabelStable && res.Status != OutputStable {
		return 0, fmt.Errorf("sim: did not stabilize: %v after %d steps", res.Status, res.Steps)
	}
	for v, y := range res.Outputs {
		if y != want {
			return 0, fmt.Errorf("sim: node %d output %d, want %d (input %s)", v, y, want, x)
		}
	}
	return res.StabilizedAt, nil
}

// RoundComplexity measures max over the given initial labelings and inputs
// of the synchronous stabilization time — an empirical estimate of R_n
// (§2.3). The check function receives each result for validation and may
// be nil. The sweep fans out over all inputs × labelings on GOMAXPROCS
// workers; see RoundComplexityWorkers for an explicit Workers knob.
func RoundComplexity(p *core.Protocol, inputs []core.Input, labelings []core.Labeling, maxSteps int, check func(core.Input, Result) error) (int, error) {
	return RoundComplexityWorkers(p, inputs, labelings, maxSteps, 0, check)
}

// RoundComplexityWorkers is RoundComplexity on a bounded worker pool of the
// given size (workers <= 0 means GOMAXPROCS). check, when non-nil, may be
// called concurrently and must be safe for that; the returned error is
// deterministic (lowest failing sweep index) regardless of worker count.
func RoundComplexityWorkers(p *core.Protocol, inputs []core.Input, labelings []core.Labeling, maxSteps, workers int, check func(core.Input, Result) error) (int, error) {
	return RoundComplexityCtx(context.Background(), p, inputs, labelings, maxSteps, workers, check)
}

// RoundComplexityCtx is RoundComplexityWorkers with cancellation: each run
// in the sweep polls ctx and the whole sweep aborts with ErrCanceled.
func RoundComplexityCtx(ctx context.Context, p *core.Protocol, inputs []core.Input, labelings []core.Labeling, maxSteps, workers int, check func(core.Input, Result) error) (int, error) {
	var (
		mu    sync.Mutex
		worst int
	)
	err := par.ForEach(len(inputs)*len(labelings), workers, func(i int) error {
		x := inputs[i/len(labelings)]
		l0 := labelings[i%len(labelings)]
		res, err := Run(p, x, l0, schedule.Synchronous{N: p.Graph().N()}, Options{
			MaxSteps:     maxSteps,
			DetectCycles: true,
			Context:      ctx,
		})
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
		mu.Lock()
		if res.StabilizedAt > worst {
			worst = res.StabilizedAt
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return worst, nil
}
