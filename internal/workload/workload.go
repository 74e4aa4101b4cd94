// Package workload is the fault-injection scenario library on top of the
// discrete-event runtime (internal/des). A Scenario composes a protocol
// instance with an activation daemon and fault injectors — transient
// label-corruption bursts, node churn with adversarially chosen rejoin
// states — and Run executes many independently seeded trials of it,
// turning single verdicts into stabilization-time *distributions*
// (p50/p95/p99 + histogram) the way robustness of a self-stabilizing
// protocol should be measured. Every trial is deterministic under its
// derived seed, so sweeps are byte-reproducible for a fixed (seed, trials)
// regardless of worker count.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"stateless/internal/core"
	"stateless/internal/des"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/par"
)

// Daemon kinds accepted by Options.Daemon.
const (
	DaemonSync        = "sync"
	DaemonPoisson     = "poisson"
	DaemonBursty      = "bursty"
	DaemonAdversarial = "adversarial"
)

// Scenario names accepted by NewScenario.
const (
	// Steady: arbitrary initial corruption, no further faults — the classic
	// self-stabilization experiment, measuring convergence time only.
	Steady = "steady"
	// Burst: k nodes have their out-labels resampled from Σ at each burst
	// time — transient corruption striking a converged system.
	Burst = "burst"
	// Churn: a Poisson process crashes random nodes; each rejoins after an
	// exponentially distributed downtime with an adversarially chosen state.
	Churn = "churn"
	// Mixed: burst and churn together.
	Mixed = "mixed"
)

// Options parameterizes a scenario. Zero values mean defaults.
type Options struct {
	// Daemon selects the activation daemon: sync | poisson | bursty |
	// adversarial (default sync).
	Daemon string
	// Rate is the poisson/bursty activation rate per round (default 1).
	Rate float64
	// BusyRounds/IdleRounds shape the bursty daemon's duty cycle
	// (default 4/16).
	BusyRounds, IdleRounds uint64
	// FairR is the adversarial daemon's fairness window in rounds
	// (default 4).
	FairR uint64
	// HorizonRounds bounds each trial (default 1 << 16 rounds).
	HorizonRounds uint64
	// CleanInit starts from the all-zero labeling instead of an arbitrary
	// (seeded-random) corruption.
	CleanInit bool

	// BurstK is the number of corrupted nodes per burst (default n/10,
	// at least 1); BurstAtRounds the burst times (default {8}).
	BurstK        int
	BurstAtRounds []uint64

	// ChurnRate is the expected number of crashes per round (default 0.05);
	// ChurnDownRounds the mean exponential downtime (default 8);
	// ChurnUntilRounds stops injecting crashes after this round
	// (default 64). Rejoin selects the rejoin state (default resample).
	ChurnRate       float64
	ChurnDownRounds float64
	ChurnUntilRound uint64
	Rejoin          des.RejoinMode

	// Metrics, when non-nil, receives per-trial des counters and the sweep's
	// recovery-time histogram.
	Metrics *obs.Registry
}

// Scenario is a fully specified fault-injection experiment: a protocol
// instance plus resolved Options.
type Scenario struct {
	Name string
	P    *core.Protocol
	X    core.Input
	Opts Options
}

// NewScenario resolves a named scenario of the library around a protocol
// instance, applying the library defaults for every zero Option.
func NewScenario(name string, p *core.Protocol, x core.Input, opts Options) (Scenario, error) {
	if p == nil {
		return Scenario{}, errors.New("workload: nil protocol")
	}
	if len(x) != p.Graph().N() {
		return Scenario{}, fmt.Errorf("workload: input length %d, want %d nodes", len(x), p.Graph().N())
	}
	switch opts.Daemon {
	case "":
		opts.Daemon = DaemonSync
	case DaemonSync, DaemonPoisson, DaemonBursty, DaemonAdversarial:
	default:
		return Scenario{}, fmt.Errorf("workload: unknown daemon %q (valid: %s|%s|%s|%s)",
			opts.Daemon, DaemonSync, DaemonPoisson, DaemonBursty, DaemonAdversarial)
	}
	if opts.Rate <= 0 {
		opts.Rate = 1
	}
	if opts.BusyRounds == 0 {
		opts.BusyRounds = 4
	}
	if opts.IdleRounds == 0 {
		opts.IdleRounds = 16
	}
	if opts.FairR == 0 {
		opts.FairR = 4
	}
	if opts.HorizonRounds == 0 {
		opts.HorizonRounds = 1 << 16
	}
	if opts.BurstK == 0 {
		if opts.BurstK = p.Graph().N() / 10; opts.BurstK == 0 {
			opts.BurstK = 1
		}
	}
	if len(opts.BurstAtRounds) == 0 {
		opts.BurstAtRounds = []uint64{8}
	}
	if opts.ChurnRate <= 0 {
		opts.ChurnRate = 0.05
	}
	if opts.ChurnDownRounds <= 0 {
		opts.ChurnDownRounds = 8
	}
	if opts.ChurnUntilRound == 0 {
		opts.ChurnUntilRound = 64
	}
	switch name {
	case Steady, Burst, Churn, Mixed:
	default:
		return Scenario{}, fmt.Errorf("workload: unknown scenario %q (valid: %s|%s|%s|%s)",
			name, Steady, Burst, Churn, Mixed)
	}
	return Scenario{Name: name, P: p, X: x, Opts: opts}, nil
}

// Trial is one seeded run's outcome.
type Trial struct {
	Seed       uint64
	Stabilized bool
	// RecoveryTicks is the stabilization time measured from the last
	// injected fault (or from the corrupted start when no fault fired):
	// StabilizedAt − LastFaultAt, clamped at 0. Meaningless when
	// !Stabilized.
	RecoveryTicks uint64
	// StabilizedAtTick is the tick of the last label change.
	StabilizedAtTick uint64
	Activations      uint64
	Faults           uint64
	MaxWaitTicks     uint64
}

// Summary aggregates a sweep: the per-trial rows plus the recovery-time
// percentiles over the stabilized trials.
type Summary struct {
	Scenario   string
	Trials     []Trial
	Stabilized int
	// P50/P95/P99/Max are recovery-time percentiles in ticks over the
	// stabilized trials (0 when none stabilized).
	P50, P95, P99, Max uint64
}

// recoveryBounds buckets recovery times (in rounds) for the obs histogram.
var recoveryBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

// Run executes trials independently seeded instances of sc on a bounded
// worker pool and aggregates the stabilization-time distribution. Trial i
// derives its seed as seed+i (matching cmd/simulate's sweep convention);
// all randomness inside a trial flows from that seed, so the Summary is
// byte-identical across runs and worker counts. Cancellation via ctx
// aborts the sweep with des.ErrCanceled.
func Run(ctx context.Context, sc Scenario, trials int, seed uint64, workers int) (Summary, error) {
	if trials <= 0 {
		trials = 1
	}
	results := make([]Trial, trials)
	err := par.ForEach(trials, workers, func(i int) error {
		t, err := runTrial(ctx, sc, seed+uint64(i))
		if err != nil {
			return err
		}
		results[i] = t
		return nil
	})
	if err != nil {
		return Summary{}, err
	}
	sum := Summary{Scenario: sc.Name, Trials: results}
	var rec []uint64
	hist := sc.Opts.Metrics.Histogram("workload/recovery_rounds", recoveryBounds...)
	for _, t := range results {
		if t.Stabilized {
			sum.Stabilized++
			rec = append(rec, t.RecoveryTicks)
			hist.Observe(int64(t.RecoveryTicks / des.TicksPerRound))
		}
	}
	if len(rec) > 0 {
		sort.Slice(rec, func(a, b int) bool { return rec[a] < rec[b] })
		sum.P50 = percentile(rec, 50)
		sum.P95 = percentile(rec, 95)
		sum.P99 = percentile(rec, 99)
		sum.Max = rec[len(rec)-1]
	}
	return sum, nil
}

// percentile returns the q-th percentile of ascending-sorted samples using
// the nearest-rank method (deterministic, no interpolation).
func percentile(sorted []uint64, q int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (q*len(sorted) + 99) / 100 // ceil(q/100 * len)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Seed-stream constants: each randomness consumer inside a trial gets its
// own PCG stream derived from (trialSeed, stream constant), so adding a
// consumer never perturbs the draws of another.
const (
	streamInit  = 0x9e3779b97f4a7c15
	streamBurst = 0xbf58476d1ce4e5b9
	streamChurn = 0x94d049bb133111eb
	streamDay   = 0xd6e8feb86659fd93
)

// runTrial builds and runs one seeded runtime.
func runTrial(ctx context.Context, sc Scenario, seed uint64) (Trial, error) {
	g := sc.P.Graph()
	o := sc.Opts

	var l0 core.Labeling
	if o.CleanInit {
		l0 = core.UniformLabeling(g, 0)
	} else {
		l0 = core.RandomLabeling(g, sc.P.Space(), rand.New(rand.NewPCG(seed, streamInit)))
	}

	var daemon des.Daemon
	switch o.Daemon {
	case DaemonSync:
		daemon = des.Synchronous{}
	case DaemonPoisson:
		daemon = des.NewPoisson(o.Rate, seed^streamDay)
	case DaemonBursty:
		daemon = des.NewBursty(o.BusyRounds, o.IdleRounds, o.Rate, seed^streamDay)
	case DaemonAdversarial:
		daemon = des.AdversarialGreedy{R: o.FairR}
	}

	rt, err := des.New(sc.P, sc.X, l0, daemon, des.Config{Metrics: o.Metrics})
	if err != nil {
		return Trial{}, err
	}
	if sc.Name == Burst || sc.Name == Mixed {
		installBursts(rt, o, rand.New(rand.NewPCG(seed, streamBurst)))
	}
	if sc.Name == Churn || sc.Name == Mixed {
		installChurn(rt, o, rand.New(rand.NewPCG(seed, streamChurn)))
	}

	res, err := rt.Run(ctx, o.HorizonRounds)
	if err != nil {
		return Trial{}, err
	}
	t := Trial{
		Seed:             seed,
		Stabilized:       res.Stabilized,
		StabilizedAtTick: res.StabilizedAt,
		Activations:      res.Activations,
		Faults:           res.Faults,
		MaxWaitTicks:     res.MaxWaitTicks,
	}
	if res.StabilizedAt > res.LastFaultAt {
		t.RecoveryTicks = res.StabilizedAt - res.LastFaultAt
	}
	return t, nil
}

// installBursts schedules one transient corruption burst per entry of
// BurstAtRounds: at each burst time, BurstK distinct nodes (seeded-random)
// have their out-labels resampled from Σ.
func installBursts(rt *des.Runtime, o Options, rng *rand.Rand) {
	n := rt.Graph().N()
	k := o.BurstK
	if k > n {
		k = n
	}
	var perm []int32 // shared by the bursts, each starting from the identity
	for _, at := range o.BurstAtRounds {
		rt.ScheduleFault(at*des.TicksPerRound, func(rt *des.Runtime) {
			// Partial Fisher–Yates over the node IDs: k distinct victims.
			if perm == nil {
				perm = make([]int32, n)
			}
			for i := range perm {
				perm[i] = int32(i)
			}
			for i := 0; i < k; i++ {
				j := i + int(rng.Uint64N(uint64(n-i)))
				perm[i], perm[j] = perm[j], perm[i]
				rt.CorruptNode(graph.NodeID(perm[i]), rng)
			}
		})
	}
}

// installChurn drives a Poisson crash process: crashes arrive with rate
// ChurnRate per round until ChurnUntilRound; each victim rejoins after an
// Exp(ChurnDownRounds) downtime in the adversarially chosen Rejoin state.
// The injector reschedules itself through the event heap, so it costs
// nothing between arrivals.
func installChurn(rt *des.Runtime, o Options, rng *rand.Rand) {
	n := rt.Graph().N()
	until := o.ChurnUntilRound * des.TicksPerRound
	expTicks := func(meanRounds float64) uint64 {
		t := uint64(rng.ExpFloat64() * meanRounds * des.TicksPerRound)
		if t == 0 {
			t = 1
		}
		return t
	}
	var crash func(rt *des.Runtime)
	schedule := func(rt *des.Runtime) {
		at := rt.Now() + expTicks(1/o.ChurnRate)
		if at <= until {
			rt.ScheduleFault(at, crash)
		}
	}
	crash = func(rt *des.Runtime) {
		v := graph.NodeID(rng.Uint64N(uint64(n)))
		if !rt.Crashed(v) {
			rt.Crash(v)
			down := expTicks(o.ChurnDownRounds)
			rt.ScheduleFault(rt.Now()+down, func(rt *des.Runtime) {
				rt.Rejoin(v, o.Rejoin, rng)
			})
		}
		schedule(rt)
	}
	schedule(rt)
}
