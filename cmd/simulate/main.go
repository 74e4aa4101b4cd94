// Command simulate runs one of the library's built-in stateless protocols
// under a chosen schedule and reports stabilization behaviour.
//
// Usage:
//
//	simulate -protocol example1 -n 5 -sched adversarial
//	simulate -protocol tree-xor -n 6 -input 101101 -sched sync
//	simulate -protocol dcounter -n 7 -d 12
//	simulate -protocol bgp-disagree -sched roundrobin
//	simulate -protocol example1 -n 6 -trials 64 -workers 8   # transient-fault sweep
//	simulate -protocol example1 -n 6 -trials 64 -report out.jsonl
//
// Discrete-event fault-injection sweeps (-sched des) run the
// internal/workload scenario library on the internal/des runtime and report
// stabilization-time distributions instead of single verdicts:
//
//	simulate -protocol saturating-ring -n 1024 -sched des -workload burst -trials 64
//	simulate -protocol saturating-ring -n 1048576 -sched des -workload churn -daemon poisson
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"stateless/internal/bestresponse"
	"stateless/internal/core"
	"stateless/internal/counter"
	"stateless/internal/des"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/par"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
	"stateless/internal/sim"
	"stateless/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var schedStr string
	fs.StringVar(&schedStr, "sched", "sync", "schedule: sync | roundrobin | rfair | adversarial | des")
	fs.StringVar(&schedStr, "schedule", "sync", "alias for -sched")
	var (
		name     = fs.String("protocol", "example1", "protocol: example1 | tree-xor | tree-maj | slow-ring | saturating-ring | saturating-cube | dcounter | bgp-good | bgp-disagree | bgp-bad")
		n        = fs.Int("n", 5, "number of nodes (where applicable; hypercube dimension for saturating-cube)")
		d        = fs.Uint64("d", 8, "counter modulus for -protocol dcounter")
		q        = fs.Uint64("q", 3, "label alphabet size for -protocol slow-ring | saturating-*")
		inputStr = fs.String("input", "", "input bits, e.g. 10110 (defaults to zeros)")
		r        = fs.Int("r", 0, "fairness window for -sched rfair (default n-1)")
		seed     = fs.Uint64("seed", 1, "seed for random schedule/labeling; trial i uses seed+i")
		maxSteps = fs.Int("steps", 100000, "maximum steps")
		randInit = fs.Bool("random-init", false, "start from a random labeling (transient fault)")
		trials   = fs.Int("trials", 1, "run this many seeded random-init trials (a transient-fault sweep) instead of one run")
		workers  = fs.Int("workers", 0, "worker-pool size for -trials sweeps (0 = GOMAXPROCS)")
		report   = fs.String("report", "", "append a structured run report as one JSON line to this file")

		// Discrete-event (-sched des) workload flags.
		workloadStr = fs.String("workload", "steady", "des scenario: steady | burst | churn | mixed")
		daemonStr   = fs.String("daemon", "sync", "des activation daemon: sync | poisson | bursty | adversarial")
		rate        = fs.Float64("rate", 1, "poisson/bursty activation rate per round")
		horizon     = fs.Uint64("horizon", 1<<16, "des trial horizon in rounds")
		cleanInit   = fs.Bool("clean-init", false, "des: start from the all-zero labeling instead of seeded corruption")
		burstK      = fs.Int("burst-k", 0, "corrupted nodes per burst (0 = n/10)")
		burstAt     = fs.String("burst-at", "", "comma-separated burst rounds (default 8)")
		churnRate   = fs.Float64("churn-rate", 0, "expected crashes per round (0 = 0.05)")
		churnDown   = fs.Float64("churn-down", 0, "mean rejoin downtime in rounds (0 = 8)")
		churnUntil  = fs.Uint64("churn-until", 0, "stop injecting crashes after this round (0 = 64)")
		fairR       = fs.Uint64("fair-r", 0, "adversarial daemon fairness window in rounds (0 = 4)")
		rejoinStr   = fs.String("rejoin", "resample", "churn rejoin state: resample | zero | stale")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	p, defaultSchedule, err := buildProtocol(*name, *n, *d, *q)
	if err != nil {
		return err
	}
	g := p.Graph()
	nn := g.N()

	x := make(core.Input, nn)
	for i, c := range *inputStr {
		if i >= nn {
			break
		}
		if c == '1' {
			x[i] = 1
		}
	}

	if schedStr == "des" {
		burstRounds, err := parseRounds(*burstAt)
		if err != nil {
			return err
		}
		rejoin, err := parseRejoin(*rejoinStr)
		if err != nil {
			return err
		}
		wopts := workload.Options{
			Daemon:          *daemonStr,
			Rate:            *rate,
			FairR:           *fairR,
			HorizonRounds:   *horizon,
			CleanInit:       *cleanInit,
			BurstK:          *burstK,
			BurstAtRounds:   burstRounds,
			ChurnRate:       *churnRate,
			ChurnDownRounds: *churnDown,
			ChurnUntilRound: *churnUntil,
			Rejoin:          rejoin,
		}
		return runDES(stdout, p, *name, x, *workloadStr, wopts, *trials, *workers, *seed, *report)
	}

	l0 := core.UniformLabeling(g, 0)
	if *randInit {
		rng := rand.New(rand.NewPCG(*seed, *seed))
		l0 = core.RandomLabeling(g, p.Space(), rng)
	}
	if *name == "example1" && schedStr == "adversarial" {
		l0 = protocols.Example1OscillationStart(g)
	}

	sched, err := buildSchedule(schedStr, *name, nn, *r, *seed, defaultSchedule)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "protocol=%s nodes=%d edges=%d |Σ|=%d (%d bits) schedule=%s\n",
		*name, nn, g.M(), p.Space().Size(), p.LabelBits(), schedStr)

	// Cycle detection is sound only under a periodic schedule; random
	// r-fair runs go to the step bound.
	_, periodic := sched.(schedule.Periodic)
	opts := sim.Options{MaxSteps: *maxSteps, DetectCycles: periodic}
	start := time.Now()
	rep := newSimReport(p, *name, map[string]string{
		"schedule": schedStr,
		"steps":    strconv.Itoa(*maxSteps),
		"seed":     strconv.FormatUint(*seed, 10),
		"trials":   strconv.Itoa(*trials),
		"workers":  strconv.Itoa(*workers),
	})
	if *report != "" {
		opts.Metrics = obs.NewRegistry()
	}
	if *trials > 1 {
		if err := runSweep(stdout, p, x, *trials, *workers, *seed, schedStr, *name, *r, defaultSchedule, opts, rep); err != nil {
			return err
		}
		return finishReport(rep, opts.Metrics, start, *report)
	}
	res, err := sim.Run(p, x, l0, sched, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "status=%v steps=%d stabilized_at=%d cycle=%d\n",
		res.Status, res.Steps, res.StabilizedAt, res.CycleLen)
	fmt.Fprintf(stdout, "outputs=")
	for _, y := range res.Outputs {
		fmt.Fprintf(stdout, "%d", y)
	}
	fmt.Fprintln(stdout)
	rep.Verdict = res.Status.String()
	return finishReport(rep, opts.Metrics, start, *report)
}

// parseRounds parses a comma-separated list of round numbers.
func parseRounds(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -burst-at entry %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRejoin maps the -rejoin flag to a des.RejoinMode.
func parseRejoin(s string) (des.RejoinMode, error) {
	switch s {
	case "resample":
		return des.RejoinResample, nil
	case "zero":
		return des.RejoinZero, nil
	case "stale":
		return des.RejoinStale, nil
	default:
		return 0, fmt.Errorf("unknown rejoin mode %q (valid: resample | zero | stale)", s)
	}
}

// runDES runs a discrete-event fault-injection sweep via internal/workload
// and reports the stabilization-time distribution.
func runDES(stdout io.Writer, p *core.Protocol, name string, x core.Input,
	scenario string, wopts workload.Options, trials, workers int, seed uint64, report string) error {
	start := time.Now()
	rep := newSimReport(p, name, map[string]string{
		"schedule": "des",
		"workload": scenario,
		"daemon":   wopts.Daemon,
		"seed":     strconv.FormatUint(seed, 10),
		"trials":   strconv.Itoa(trials),
		"workers":  strconv.Itoa(workers),
	})
	if report != "" {
		wopts.Metrics = obs.NewRegistry()
	}
	sc, err := workload.NewScenario(scenario, p, x, wopts)
	if err != nil {
		return err
	}
	sum, err := workload.Run(context.Background(), sc, trials, seed, workers)
	if err != nil {
		return err
	}
	g := p.Graph()
	fmt.Fprintf(stdout, "protocol=%s nodes=%d edges=%d |Σ|=%d schedule=des workload=%s daemon=%s\n",
		name, g.N(), g.M(), p.Space().Size(), scenario, sc.Opts.Daemon)
	fmt.Fprintf(stdout, "trials=%d workers=%d stabilized=%d/%d\n",
		trials, par.Workers(workers), sum.Stabilized, len(sum.Trials))
	fmt.Fprintf(stdout, "recovery_ticks p50=%d p95=%d p99=%d max=%d\n",
		sum.P50, sum.P95, sum.P99, sum.Max)
	fmt.Fprintf(stdout, "recovery_rounds p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		des.Rounds(sum.P50), des.Rounds(sum.P95), des.Rounds(sum.P99), des.Rounds(sum.Max))

	rep.Trials = make([]obs.Trial, len(sum.Trials))
	for i, tr := range sum.Trials {
		status := "stabilized"
		if !tr.Stabilized {
			status = "exhausted"
		}
		rep.Trials[i] = obs.Trial{
			Seed:          tr.Seed,
			Status:        status,
			StabilizedAt:  int(tr.StabilizedAtTick),
			RecoveryTicks: tr.RecoveryTicks,
			Activations:   tr.Activations,
			Faults:        tr.Faults,
		}
	}
	rep.Percentiles = &obs.Percentiles{P50: sum.P50, P95: sum.P95, P99: sum.P99, Max: sum.Max}
	rep.Verdict = "stabilized"
	if sum.Stabilized < len(sum.Trials) {
		rep.Verdict = "exhausted"
	}
	return finishReport(rep, wopts.Metrics, start, report)
}

// newSimReport stamps a simulate report with the instance description.
func newSimReport(p *core.Protocol, name string, options map[string]string) *obs.Report {
	rep := obs.NewReport("simulate", name)
	g := p.Graph()
	rep.Nodes, rep.Edges, rep.Sigma = g.N(), g.M(), p.Space().Size()
	rep.Options = options
	return rep
}

// finishReport stamps resource totals and the metrics snapshot and appends
// the report to path (no-op when no -report sink was given).
func finishReport(rep *obs.Report, m *obs.Registry, start time.Time, path string) error {
	if path == "" {
		return nil
	}
	rep.Metrics = m.Snapshot()
	rep.Finish(start)
	return rep.AppendJSONL(path)
}

// runSweep runs a transient-fault sweep: trials seeded random initial
// labelings (and, for seeded schedules, one schedule per trial), fanned out
// over the worker pool, reporting the status histogram and the worst
// stabilization time. Results are deterministic for a fixed seed regardless
// of the worker count.
func runSweep(stdout io.Writer, p *core.Protocol, x core.Input, trials, workers int, seed uint64,
	schedKind, name string, r int, adversarial [][]graph.NodeID, opts sim.Options, rep *obs.Report) error {
	g := p.Graph()
	results := make([]sim.Result, trials)
	err := par.ForEach(trials, workers, func(i int) error {
		trialSeed := seed + uint64(i)
		sched, err := buildSchedule(schedKind, name, g.N(), r, trialSeed, adversarial)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(trialSeed, trialSeed))
		l0 := core.RandomLabeling(g, p.Space(), rng)
		res, err := sim.Run(p, x, l0, sched, opts)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	counts := map[sim.Status]int{}
	worst := -1
	rep.Trials = make([]obs.Trial, trials)
	for i, res := range results {
		counts[res.Status]++
		if (res.Status == sim.LabelStable || res.Status == sim.OutputStable) && res.StabilizedAt > worst {
			worst = res.StabilizedAt
		}
		rep.Trials[i] = obs.Trial{
			Seed:         seed + uint64(i),
			Status:       res.Status.String(),
			Steps:        res.Steps,
			StabilizedAt: res.StabilizedAt,
			CycleLen:     res.CycleLen,
		}
	}
	fmt.Fprintf(stdout, "trials=%d workers=%d worst_stabilized_at=%d\n", trials, par.Workers(workers), worst)
	for _, st := range []sim.Status{sim.LabelStable, sim.OutputStable, sim.Oscillating, sim.Exhausted} {
		if counts[st] > 0 {
			fmt.Fprintf(stdout, "status=%v count=%d\n", st, counts[st])
		}
	}
	// The sweep's verdict is its most severe trial outcome.
	for _, st := range []sim.Status{sim.Oscillating, sim.Exhausted, sim.OutputStable, sim.LabelStable} {
		if counts[st] > 0 {
			rep.Verdict = st.String()
			break
		}
	}
	return nil
}

// nRanges gives the valid -n range of each protocol whose graph -n sizes.
// The bounds keep graph construction from panicking or allocating without
// limit; the ring families go to 4x the DES's million-node scale.
var nRanges = map[string]struct {
	lo, hi int
	what   string
}{
	"example1":        {2, 1 << 10, "clique nodes"},
	"tree-xor":        {3, 62, "ring nodes"},
	"tree-maj":        {3, 62, "ring nodes"},
	"slow-ring":       {2, 1 << 22, "ring nodes"},
	"saturating-ring": {2, 1 << 22, "ring nodes"},
	"saturating-cube": {0, 20, "hypercube dimension"},
	"dcounter":        {3, 1 << 22, "ring nodes"},
}

// buildProtocol validates -n against nRanges before any graph is built, so
// an out-of-range size is a usage error naming the flag and its valid
// range rather than a panic.
func buildProtocol(name string, n int, d, q uint64) (*core.Protocol, [][]graph.NodeID, error) {
	if rg, ok := nRanges[name]; ok && (n < rg.lo || n > rg.hi) {
		return nil, nil, fmt.Errorf("-n %d out of range for -protocol %s: want %d..%d (%s)",
			n, name, rg.lo, rg.hi, rg.what)
	}
	switch name {
	case "example1":
		p, err := protocols.Example1Clique(n)
		return p, protocols.Example1OscillationSchedule(n), err
	case "tree-xor":
		p, err := protocols.TreeProtocol(graph.BidirectionalRing(n), func(x core.Input) core.Bit {
			var v core.Bit
			for _, b := range x {
				v ^= b
			}
			return v
		})
		return p, nil, err
	case "tree-maj":
		p, err := protocols.TreeProtocol(graph.BidirectionalRing(n), func(x core.Input) core.Bit {
			cnt := 0
			for _, b := range x {
				cnt += int(b)
			}
			return core.BitOf(2*cnt >= len(x))
		})
		return p, nil, err
	case "slow-ring":
		p, err := protocols.SlowUnidirectional(n, q)
		return p, nil, err
	case "saturating-ring":
		p, err := protocols.SaturatingRing(n, q)
		return p, nil, err
	case "saturating-cube":
		p, err := protocols.SaturatingNet(graph.Hypercube(n), q)
		return p, nil, err
	case "dcounter":
		dc, err := counter.NewDCounter(n, d)
		if err != nil {
			return nil, nil, err
		}
		p, err := dc.Protocol()
		return p, nil, err
	case "bgp-good":
		p, err := bestresponse.GoodGadget().Protocol()
		return p, nil, err
	case "bgp-disagree":
		p, err := bestresponse.Disagree().Protocol()
		return p, nil, err
	case "bgp-bad":
		p, err := bestresponse.BadGadget().Protocol()
		return p, nil, err
	default:
		return nil, nil, fmt.Errorf("unknown protocol %q", name)
	}
}

func buildSchedule(kind, name string, n, r int, seed uint64, adversarial [][]graph.NodeID) (schedule.Schedule, error) {
	switch kind {
	case "sync":
		return schedule.Synchronous{N: n}, nil
	case "roundrobin":
		return schedule.RoundRobin{N: n}, nil
	case "rfair":
		if r <= 0 {
			r = n - 1
		}
		return schedule.NewRandomRFair(n, r, 0.4, seed)
	case "adversarial":
		if adversarial == nil {
			return nil, fmt.Errorf("protocol %q has no built-in adversarial schedule", name)
		}
		return schedule.NewScripted(adversarial)
	default:
		return nil, fmt.Errorf("unknown -sched %q (valid: sync | roundrobin | rfair | adversarial | des)", kind)
	}
}
