package des_test

import (
	"fmt"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

// cancelCheckInterval is how many steps pass between Context polls: steps
// are microseconds-cheap, so checking every step would dominate small runs.
const cancelCheckInterval = 1024

// referenceRun is the step loop sim.Run had before it ran on the event
// runtime, kept as the oracle that sim.Run and the runtime are checked
// against: it steps σ(t) over every activated node, checks label
// stabilization globally, interns the packed labeling at phase 0 of a
// periodic schedule's period, and replays a detected cycle once to
// classify it.
func referenceRun(p *core.Protocol, x core.Input, l0 core.Labeling, sched schedule.Schedule, opts sim.Options) (sim.Result, error) {
	g := p.Graph()
	if len(x) != g.N() {
		return sim.Result{}, fmt.Errorf("%w: got %d want %d", sim.ErrBadInput, len(x), g.N())
	}
	if len(l0) != g.M() {
		return sim.Result{}, fmt.Errorf("sim: labeling length %d, want %d edges", len(l0), g.M())
	}
	// Packed cycle keys are injective only for in-space labels.
	for i, l := range l0 {
		if !p.Space().Contains(l) {
			return sim.Result{}, fmt.Errorf("sim: l0[%d] = %d outside %v", i, l, p.Space())
		}
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = sim.DefaultMaxSteps
	}
	// Activation sets are checked against the node count for the first
	// period of a periodic schedule (its set at step t depends only on
	// t mod the period, so that covers the run) and at every step of any
	// other schedule.
	checkUntil, period := maxSteps, 0
	if ps, ok := sched.(schedule.Periodic); ok {
		if period = ps.Period(); period < 1 {
			return sim.Result{}, fmt.Errorf("%w: period %d", sim.ErrBadSchedule, period)
		}
		checkUntil = period
	} else if opts.DetectCycles {
		return sim.Result{}, fmt.Errorf("%w: %T", sim.ErrAperiodic, sched)
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
			return sim.Result{}, fmt.Errorf("%w: %w", sim.ErrCanceled, err)
		}
	}
	for t := 1; t <= maxSteps; t++ {
		if opts.Context != nil && t%cancelCheckInterval == 0 {
			if err := opts.Context.Err(); err != nil {
				return sim.Result{}, fmt.Errorf("%w: %w", sim.ErrCanceled, err)
			}
		}
		active = sched.Activated(t, active[:0])
		if t <= checkUntil {
			if err := checkActive(active, g.N(), t); err != nil {
				return sim.Result{}, err
			}
		}
		changed := stepper.Step(x, cur, &next, active)
		cur, next = next, cur
		if changed {
			lastLabelChange = t
		}
		// Label stabilization: check global fixed point (not just "this
		// step's activations changed nothing": inactive nodes might still
		// want to move).
		if !changed && stepper.IsStable(x, cur.Labels) {
			return sim.Result{
				Status:       sim.LabelStable,
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
	return sim.Result{
		Status:       sim.Exhausted,
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
			return fmt.Errorf("%w: step %d activates node %d of %d", sim.ErrBadSchedule, t, v, n)
		}
	}
	return nil
}

// classifyCycle replays the detected cycle once to decide whether outputs
// are constant on it (sim.OutputStable) or not (sim.Oscillating).
func classifyCycle(p *core.Protocol, x core.Input, cur core.Config, sched schedule.Schedule, t, prev int) (sim.Result, error) {
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
	status := sim.OutputStable
	if !stableOutputs {
		status = sim.Oscillating
	}
	return sim.Result{
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
