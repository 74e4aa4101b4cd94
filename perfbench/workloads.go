package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/obs"
	"stateless/internal/protocols"
	"stateless/internal/verify"
	"stateless/internal/workload"
)

// jobs are the benchmark's workloads. Each has a full size, the one the
// benchmark measures, and a tiny size that its test runs in seconds. The
// reasons for each choice are recorded in BENCHMARK.json and NOTES.md.
var jobs = map[string]setupFunc{
	// The exact path: hash-store interning and the serial rank/CSR/SCC
	// analysis dominate; canonicalization does nothing.
	"verify-raw": verifyJob(
		verifyCase{
			build: func() (*core.Protocol, error) { return protocols.SaturatingRing(7, 3) },
			r:     3,
			opts:  verify.Options{Symmetry: verify.SymmetryOff, Store: verify.StoreHash},
			want:  want{stabilizing: true, exact: true, states: 186_693, quotient: 1},
		},
		verifyCase{
			build: func() (*core.Protocol, error) { return protocols.SaturatingRing(6, 3) },
			r:     3,
			opts:  verify.Options{Symmetry: verify.SymmetryOff, Store: verify.StoreHash},
			want:  want{stabilizing: true, exact: true, states: 32_202, quotient: 1},
		}),
	// The lossy engine: bitstate interning, the key frontier and spill I/O.
	"verify-bitstate": verifyJob(
		verifyCase{
			build: func() (*core.Protocol, error) { return protocols.SaturatingRing(10, 3) },
			r:     2,
			opts: verify.Options{Symmetry: verify.SymmetryAuto, Store: verify.StoreBitstate,
				BitstateBits: 24, BitstateK: 3, SpillMemBytes: 1 << 20},
			want:        want{stabilizing: true, exact: false, quotient: 10},
			exactStates: 217_563,
		},
		verifyCase{
			build: func() (*core.Protocol, error) { return protocols.SaturatingRing(6, 3) },
			r:     2,
			opts: verify.Options{Symmetry: verify.SymmetryAuto, Store: verify.StoreBitstate,
				BitstateBits: 20, BitstateK: 3, SpillMemBytes: 1 << 10},
			want:        want{stabilizing: true, exact: false, quotient: 6},
			exactStates: 1065,
		}),
	// The whole DES/workload stack on a 2^18-node ring; no verifier code.
	"des-faults": desJob(),
}

// verifyCase is one verifier instance and the verdict it must reach.
type verifyCase struct {
	build func() (*core.Protocol, error)
	r     int
	opts  verify.Options
	want  want
	// exactStates is the exact orbit count of a bitstate case (its
	// Decision.States is lossy), 0 for exact stores.
	exactStates int
}

// want is the checked part of a Decision.
type want struct {
	stabilizing, exact bool
	states, quotient   int // 0: not checked
}

func (w want) check(d verify.Decision) error {
	if d.Stabilizing != w.stabilizing || d.Exact != w.exact ||
		(w.states != 0 && d.States != w.states) || (w.quotient != 0 && d.Quotient != w.quotient) {
		return fmt.Errorf("decision stabilizing=%v exact=%v states=%d quotient=%d, want stabilizing=%v exact=%v states=%d quotient=%d",
			d.Stabilizing, d.Exact, d.States, d.Quotient, w.stabilizing, w.exact, w.states, w.quotient)
	}
	return nil
}

// verifyJob times one LabelRStabilizingOpts call per operation.
func verifyJob(full, tiny verifyCase) setupFunc {
	return func(c config, o *op) (runFunc, error) {
		vc := full
		if c.tiny {
			vc = tiny
		}
		var (
			p   *core.Protocol
			x   core.Input
			err error
		)
		o.layers["setup.protocol_s"] = o.call("setup.protocol", func() {
			if p, err = vc.build(); err == nil {
				x = make(core.Input, p.Graph().N())
			}
		}).Seconds()
		if err != nil {
			return nil, err
		}
		opts := vc.opts
		opts.Workers = workers
		if opts.SpillMemBytes > 0 {
			opts.SpillDir = c.workdir
		}
		return func(o *op) (outcome, error) {
			opts := opts
			var frontierPeak atomic.Int64
			if o.reg != nil {
				opts.Metrics = o.reg
				// The frontier's memory is a live gauge; sample its peak.
				opts.ProgressInterval = 50 * time.Millisecond
				opts.Progress = func(p verify.Progress) {
					v := p.Metrics[explore.MetricFrontierMemBytes].Value
					for cur := frontierPeak.Load(); v > cur && !frontierPeak.CompareAndSwap(cur, v); cur = frontierPeak.Load() {
					}
				}
			}
			var dec verify.Decision
			var err error
			d := o.call("verify.call", func() { dec, err = verify.LabelRStabilizingOpts(p, x, vc.r, opts) })
			if err == nil {
				err = vc.want.check(dec)
			}
			if err != nil {
				return outcome{attempted: 1, failed: 1}, err
			}
			if o.reg != nil {
				verifyLayers(o.layers, o.reg.Snapshot(), d, dec, vc.exactStates, frontierPeak.Load())
			}
			return outcome{attempted: 1}, nil
		}, nil
	}
}

// verifyLayers derives the verifier's per-layer metrics from one traced
// call. The stage timers are sampled worker-seconds summed over workers.
func verifyLayers(l map[string]float64, s obs.Snapshot, call time.Duration, dec verify.Decision, exactStates int, frontierPeak int64) {
	seconds := func(name string) float64 { // stage timers and analysis gauges are in ns
		v := s[name]
		if v.Kind == "timer" {
			return float64(v.Ns) / 1e9
		}
		return float64(v.Value) / 1e9
	}
	value := func(name string) float64 { return float64(s[name].Value) }
	l["verify.call_s"] = call.Seconds()
	l["core.step_s"] = seconds(verify.MetricStepNs)
	l["enc.pack_s"] = seconds(verify.MetricPackNs)
	l["explore.canonicalize_s"] = seconds(verify.MetricCanonNs)
	l["explore.expand_s"] = seconds(explore.MetricExpandNs)
	l["explore.intern_s"] = seconds(explore.MetricInternNs)
	l["explore.absorb_s"] = seconds(explore.MetricAbsorbNs)
	l["explore.worker_idle_s"] = seconds(explore.MetricIdleNs)
	if states := value(explore.MetricStoreStates); states > 0 {
		l["explore.probes_per_state"] = value(explore.MetricStoreProbes) / states
	}
	l["explore.store_max_probe"] = value(explore.MetricStoreMaxProbe)
	l["explore.store_occupancy_ppm"] = value(explore.MetricStoreOccupancyPPM)
	l["explore.store_bytes"] = value(explore.MetricStoreBytes)
	if h := s[explore.MetricBatchFill]; h.Count > 0 {
		l["explore.batch_fill"] = float64(h.Sum) / float64(h.Count)
	}
	l["verify.edges"] = value(verify.MetricEdges)
	l["verify.sccs"] = value(verify.MetricSCCs)
	l["verify.states"] = value(verify.MetricStates)
	l["verify.quotient"] = value(verify.MetricQuotient)
	l["verify.rank_s"] = seconds(verify.MetricRankNs)
	l["verify.csr_s"] = seconds(verify.MetricCSRNs)
	l["verify.scc_s"] = seconds(verify.MetricSCCNs)
	l["explore.spill_bytes"] = value(explore.MetricSpillBytes)
	l["explore.spill_chunks"] = value(explore.MetricSpillChunks)
	l["explore.frontier_mem_bytes"] = float64(frontierPeak)
	l["explore.hash_factor"] = dec.HashFactor
	if exactStates > 0 {
		l["explore.bitstate_overadmit"] = float64(max(0, dec.States-exactStates))
		l["explore.bitstate_dropped"] = float64(max(0, exactStates-dec.States))
	}
}

// desTrials is the trial count of each daemon's sub-sweep.
const desTrials = 2

// desDaemons are the sub-sweeps of one des-faults operation: Poisson
// activates about one node per tick, so the event heap is busy; the
// adversarial daemon activates large simultaneous batches and probes
// every activation with WouldChange.
var desDaemons = []string{workload.DaemonPoisson, workload.DaemonAdversarial}

// sweepDigest is the checked part of a workload.Summary.
type sweepDigest struct {
	Stabilized          int
	P50, P95, P99, Max  uint64
	Activations, Faults uint64
}

func digest(s workload.Summary) sweepDigest {
	d := sweepDigest{Stabilized: s.Stabilized, P50: s.P50, P95: s.P95, P99: s.P99, Max: s.Max}
	for _, t := range s.Trials {
		d.Activations += t.Activations
		d.Faults += t.Faults
	}
	return d
}

// desGolden pins each sub-sweep's digest at seed 1, keyed by config.tiny.
var desGolden = map[bool]map[string]sweepDigest{
	false: {
		workload.DaemonPoisson:     {Stabilized: 2, P50: 0, P95: 122, P99: 122, Max: 122, Activations: 989_786, Faults: 52_450},
		workload.DaemonAdversarial: {Stabilized: 2, P50: 3687, P95: 4097, P99: 4097, Max: 4097, Activations: 1_277_826, Faults: 52_450},
	},
	true: {
		workload.DaemonPoisson:     {Stabilized: 2, P50: 1306, P95: 3240, P99: 3240, Max: 3240, Activations: 3888, Faults: 226},
		workload.DaemonAdversarial: {Stabilized: 2, P50: 3687, P95: 4097, P99: 4097, Max: 4097, Activations: 5076, Faults: 226},
	},
}

// desJob times the two workload.Run sub-sweeps of a mixed burst-and-churn
// scenario on a saturating ring; trial i of a sweep uses seed + i.
func desJob() setupFunc {
	return func(c config, o *op) (runFunc, error) {
		n := 1 << 18
		if c.tiny {
			n = 1 << 10
		}
		var (
			p   *core.Protocol
			x   core.Input
			err error
		)
		o.layers["setup.protocol_s"] = o.call("setup.protocol", func() {
			if p, err = protocols.SaturatingRing(n, 4); err == nil {
				x = make(core.Input, n)
			}
		}).Seconds()
		if err != nil {
			return nil, err
		}
		scs := make([]workload.Scenario, len(desDaemons))
		o.layers["workload.scenario_s"] = o.call("workload.scenario", func() {
			for i, d := range desDaemons {
				if scs[i], err = workload.NewScenario(workload.Mixed, p, x, workload.Options{Daemon: d}); err != nil {
					return
				}
			}
		}).Seconds()
		if err != nil {
			return nil, err
		}
		var first []sweepDigest // every operation of a run must repeat the first one's sweeps
		return func(o *op) (outcome, error) {
			var (
				out  outcome
				errs []error
				run  time.Duration
				got  = make([]sweepDigest, len(scs))
			)
			for i, sc := range scs {
				sc.Opts.Metrics = o.reg
				var sum workload.Summary
				var err error
				run += o.call("workload.run/"+sc.Opts.Daemon, func() {
					sum, err = workload.Run(context.Background(), sc, desTrials, c.seed, workers)
				})
				out.attempted += desTrials
				if err != nil {
					out.failed += desTrials
					errs = append(errs, fmt.Errorf("%s sweep: %w", sc.Opts.Daemon, err))
					continue
				}
				got[i] = digest(sum)
				bad := desTrials - sum.Stabilized
				if g, ok := desGolden[c.tiny][sc.Opts.Daemon]; ok && c.seed == 1 && got[i] != g {
					bad = desTrials
					errs = append(errs, fmt.Errorf("%s sweep: summary %+v, want golden %+v", sc.Opts.Daemon, got[i], g))
				} else if first != nil && got[i] != first[i] {
					bad = desTrials
					errs = append(errs, fmt.Errorf("%s sweep: summary %+v differs from the run's first %+v", sc.Opts.Daemon, got[i], first[i]))
				} else if bad > 0 {
					errs = append(errs, fmt.Errorf("%s sweep: %d of %d trials did not stabilize", sc.Opts.Daemon, bad, desTrials))
				}
				out.failed += bad
			}
			if first == nil {
				first = got
			}
			if o.reg != nil {
				desLayers(o.layers, o.reg.Snapshot(), run)
			}
			return out, errors.Join(errs...)
		}, nil
	}
}

// desLayers derives the DES per-layer metrics of one traced operation.
func desLayers(l map[string]float64, s obs.Snapshot, run time.Duration) {
	acts := float64(s["des/activations"].Value)
	l["workload.run_s"] = run.Seconds()
	if acts > 0 {
		l["des.ns_per_activation"] = float64(run.Nanoseconds()) / acts
		l["des.reactions_per_activation"] = float64(s["des/reactions"].Value) / acts
	}
	l["des.heap_max"] = float64(s["des/heap_max"].Value)
	l["des.activations"] = acts
	l["des.faults"] = float64(s["des/faults"].Value)
}
