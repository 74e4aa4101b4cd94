package des

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
)

// syncDaemon is the synchronous schedule over n nodes as a daemon.
func syncDaemon(n int) *ScheduleDaemon {
	d, err := FromSchedule(schedule.Synchronous{N: n}, n, 0)
	if err != nil {
		panic(err)
	}
	return d
}

// Altisen–Bozga's revisited analysis of the Dolev–Israeli–Moran BFS
// algorithm bounds synchronous convergence from an arbitrary corrupted
// state by sigma + ecc + 2 rounds. The DES runtime must respect the bound
// and land on the exact capped BFS distances — the empirical validation
// hook the exact verifier cannot scale to.
func TestBFSConvergenceBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		sigma uint64
	}{
		{"cube3", graph.Hypercube(3), 5},
		{"bidir-ring12", graph.BidirectionalRing(12), 8},
		{"torus3x4", graph.Torus(3, 4), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := protocols.BFSSpanningTree(tc.g, tc.sigma)
			if err != nil {
				t.Fatal(err)
			}
			x := make(core.Input, tc.g.N())
			x[0] = 1
			dist := tc.g.Distances(0)
			ecc := tc.g.Eccentricity(0)
			bound := uint64(tc.sigma) + uint64(ecc) + 2
			for seed := uint64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewPCG(seed, seed))
				l0 := core.RandomLabeling(tc.g, p.Space(), rng)
				rt, err := New(p, x, l0, syncDaemon(tc.g.N()), Config{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := rt.Run(context.Background(), 4*bound)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Stabilized {
					t.Fatalf("seed %d: did not stabilize within horizon", seed)
				}
				if rounds := res.StabilizedAt / TicksPerRound; rounds > bound {
					t.Fatalf("seed %d: stabilized at round %d > sigma+ecc+2 = %d",
						seed, rounds, bound)
				}
				for v := 0; v < tc.g.N(); v++ {
					want := core.Label(dist[v])
					if top := core.Label(tc.sigma - 1); want > top {
						want = top
					}
					for _, id := range tc.g.Out(graph.NodeID(v)) {
						if got := rt.Labels()[id]; got != want {
							t.Fatalf("seed %d: node %d broadcasts %d, want BFS distance %d",
								seed, v, got, want)
						}
					}
				}
				if _, ok := protocols.BFSParents(tc.g, rt.Labels(), x); !ok {
					t.Fatalf("seed %d: stable labeling is not a spanning tree", seed)
				}
			}
		})
	}
}

// Quiescent nodes must incur no per-event cost: on a 100k-node ring at its
// fixed point, a 3-node corruption burst touches O(sigma) nodes, so the
// whole run processes a bounded handful of activations — independent of n.
func TestQuiescentNodesCostNothing(t *testing.T) {
	const n = 100_000
	const sigma = 4
	p, err := protocols.SaturatingRing(n, sigma)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, n)
	stable := core.UniformLabeling(g, core.Label(sigma-1)) // the unique fixed point
	rt, err := New(p, x, stable, syncDaemon(g.N()), Config{AssumeClean: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	rt.ScheduleFault(1*TicksPerRound, func(rt *Runtime) {
		for _, v := range []graph.NodeID{10, 5_000, 90_000} {
			rt.CorruptNode(v, rng)
		}
	})
	res, err := rt.Run(context.Background(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized {
		t.Fatal("corruption burst did not heal")
	}
	if res.Activations == 0 || res.Activations > 200 {
		t.Fatalf("activations = %d, want small and nonzero (quiescent nodes must cost nothing)",
			res.Activations)
	}
	if res.MaxHeap > 64 {
		t.Fatalf("heap high-water %d, want < 64 for a 3-node fault", res.MaxHeap)
	}
	if !rt.Labels().Equal(stable) {
		t.Fatal("did not return to the fixed point")
	}
}

// The adversarial-greedy daemon is starvation-bounded by construction:
// no dirty node may wait longer than R rounds for its activation, and the
// protocol still converges under it.
func TestAdversarialGreedyStarvationBound(t *testing.T) {
	p, err := protocols.SaturatingRing(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, g.N())
	for _, r := range []uint64{1, 3, 7} {
		for seed := uint64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewPCG(seed, seed))
			l0 := core.RandomLabeling(g, p.Space(), rng)
			rt, err := New(p, x, l0, AdversarialGreedy{R: r}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.Run(context.Background(), 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stabilized {
				t.Fatalf("R=%d seed %d: did not stabilize under the adversary", r, seed)
			}
			if res.MaxWaitTicks > r*TicksPerRound {
				t.Fatalf("R=%d seed %d: a node waited %d ticks > fairness bound %d",
					r, seed, res.MaxWaitTicks, r*TicksPerRound)
			}
		}
	}
}

// Stochastic daemons: Poisson and Bursty runs stabilize, are seed-
// deterministic, and differ across seeds.
func TestStochasticDaemonsDeterministic(t *testing.T) {
	p, err := protocols.SaturatingRing(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, g.N())
	run := func(daemon func(seed uint64) Daemon, seed uint64) Result {
		rng := rand.New(rand.NewPCG(seed, seed))
		l0 := core.RandomLabeling(g, p.Space(), rng)
		rt, err := New(p, x, l0, daemon(seed), Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(context.Background(), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stabilized {
			t.Fatalf("seed %d: did not stabilize", seed)
		}
		return res
	}
	daemons := map[string]func(seed uint64) Daemon{
		"poisson": func(seed uint64) Daemon { return NewPoisson(1, seed) },
		"bursty":  func(seed uint64) Daemon { return NewBursty(4, 16, 1, seed) },
	}
	for name, mk := range daemons {
		t.Run(name, func(t *testing.T) {
			a, b := run(mk, 3), run(mk, 3)
			if a != b {
				t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
			}
			c := run(mk, 4)
			if a == c {
				t.Fatal("different seeds produced identical results (suspicious)")
			}
		})
	}
}

// Bursty activations must only land inside busy windows.
func TestBurstyRespectsDutyCycle(t *testing.T) {
	d := NewBursty(4, 16, 1, 9)
	rt := &Runtime{} // Delay only reads Now()
	for i := 0; i < 2000; i++ {
		rt.now = uint64(i) * 137 // sample delays from many phases
		target := (rt.now + d.Delay(rt, 0)) / TicksPerRound % (4 + 16)
		if target >= 4 {
			t.Fatalf("now %d: activation scheduled into idle phase %d", rt.now, target)
		}
	}
}

// Crash/rejoin: a crashed node freezes, its neighbors keep running, and an
// adversarial rejoin state is healed.
func TestCrashRejoin(t *testing.T) {
	const n = 16
	const sigma = 4
	p, err := protocols.SaturatingRing(n, sigma)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, n)
	rng := rand.New(rand.NewPCG(5, 5))
	l0 := core.RandomLabeling(g, p.Space(), rng)
	rt, err := New(p, x, l0, syncDaemon(g.N()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(2*TicksPerRound, func(rt *Runtime) { rt.Crash(3) })
	rt.ScheduleFault(9*TicksPerRound+17, func(rt *Runtime) { rt.Rejoin(3, RejoinZero, rng) })
	res, err := rt.Run(context.Background(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized {
		t.Fatal("did not stabilize after rejoin")
	}
	want := core.UniformLabeling(g, core.Label(sigma-1))
	if !rt.Labels().Equal(want) {
		t.Fatalf("labels %v, want saturated fixed point", rt.Labels())
	}
	if res.Faults != 2 {
		t.Fatalf("faults = %d, want 2 (crash + rejoin)", res.Faults)
	}
	if res.LastFaultAt != 9*TicksPerRound+17 {
		t.Fatalf("last fault at %d, want %d", res.LastFaultAt, 9*TicksPerRound+17)
	}
}

// Cancellation parity with explore.Run / sim.Run.
func TestRunCanceled(t *testing.T) {
	p, err := protocols.SaturatingRing(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	rt, err := New(p, make(core.Input, g.N()), core.UniformLabeling(g, 0), syncDaemon(g.N()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = rt.Run(ctx, 100)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// Metrics land in the registry once per run, with consistent counters.
func TestMetricsRecorded(t *testing.T) {
	p, err := protocols.SaturatingRing(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	m := obs.NewRegistry()
	rng := rand.New(rand.NewPCG(1, 1))
	rt, err := New(p, make(core.Input, g.N()), core.RandomLabeling(g, p.Space(), rng),
		syncDaemon(g.N()), Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(context.Background(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if got := snap["des/activations"].Value; got != int64(res.Activations) {
		t.Fatalf("des/activations = %d, want %d", got, res.Activations)
	}
	if snap["des/runs"].Value != 1 {
		t.Fatalf("des/runs = %d, want 1", snap["des/runs"].Value)
	}
	var batches int64
	for _, c := range snap["des/batch_size_log2"].Values {
		batches += c
	}
	if batches == 0 {
		t.Fatal("batch-size series is empty")
	}
}

// Input/labeling validation mirrors sim's.
func TestNewValidation(t *testing.T) {
	p, err := protocols.SaturatingRing(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	good := core.UniformLabeling(g, 0)
	if _, err := New(p, make(core.Input, 3), good, syncDaemon(g.N()), Config{}); err == nil {
		t.Error("short input accepted")
	}
	if _, err := New(p, make(core.Input, 4), good[:2], syncDaemon(g.N()), Config{}); err == nil {
		t.Error("short labeling accepted")
	}
	bad := good.Clone()
	bad[0] = 99
	if _, err := New(p, make(core.Input, 4), bad, syncDaemon(g.N()), Config{}); err == nil {
		t.Error("out-of-space label accepted")
	}
	if _, err := New(p, make(core.Input, 4), good, nil, Config{}); err == nil {
		t.Error("nil daemon accepted")
	}
}

// delayFunc is a Daemon given by a function of (now, v).
type delayFunc func(now uint64, v graph.NodeID) uint64

func (f delayFunc) Delay(rt *Runtime, v graph.NodeID) uint64 { return f(rt.Now(), v) }

// The crash/pending interplay, scripted on an 8-node saturating ring (Σ of
// size 4) that logs every activation as "tick:node". From the all-zero
// labeling every node starts dirty at tick 0 with its event due at tick 10,
// except node 5 (tick 25) and node 2 (tick 40). The faults:
//   - tick 3: Crash(5), while 5's event is pending;
//   - tick 5: Crash(2), while 2's event is pending: it is dropped at tick
//     40 and its 40-tick wait is not counted;
//   - tick 7: Rejoin(5), while 5's event is still pending: the event fires
//     at tick 25 and counts the wait from tick 0;
//   - tick 15: schedules Crash(1) at tick 20, behind the events that tick
//     10's activations queued there, so 1 still activates at tick 20;
//   - tick 20, scheduled before Run and so ahead of every activation in
//     that tick's bucket: Crash(4), which drops 4's event later in the same
//     bucket, then Crash(7) and Rejoin(7), which leave 7's event to fire;
//   - tick 30: Crash(3) and Rejoin(3) in one tick, with no event pending.
//
// The expected values were recorded from the runtime that kept separate
// pending, pendingAt and crashed arrays, before it moved to one state word
// per node; they pin that the move changed nothing observable.
func TestCrashPendingInterplay(t *testing.T) {
	const n = 8
	const top = 3
	g := graph.Ring(n)
	var rt *Runtime
	var log []string
	reactions := make([]core.Reaction, n)
	for v := range reactions {
		reactions[v] = func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			log = append(log, fmt.Sprintf("%d:%d", rt.Now(), v))
			out[0] = min(in[0]+1, top)
			return 0
		}
	}
	p, err := core.NewProtocol(g, core.MustLabelSpace(top+1), reactions)
	if err != nil {
		t.Fatal(err)
	}
	daemon := delayFunc(func(now uint64, v graph.NodeID) uint64 {
		if now == 0 && v == 5 {
			return 25
		}
		if now == 0 && v == 2 {
			return 40
		}
		return 10
	})
	rt, err = New(p, make(core.Input, n), make(core.Labeling, g.M()), daemon, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	rt.ScheduleFault(3, func(rt *Runtime) { rt.Crash(5) })
	rt.ScheduleFault(5, func(rt *Runtime) { rt.Crash(2) })
	rt.ScheduleFault(7, func(rt *Runtime) { rt.Rejoin(5, RejoinZero, rng) })
	rt.ScheduleFault(15, func(rt *Runtime) {
		rt.ScheduleFault(20, func(rt *Runtime) { rt.Crash(1) })
	})
	rt.ScheduleFault(20, func(rt *Runtime) { rt.Crash(4) })
	rt.ScheduleFault(20, func(rt *Runtime) { rt.Crash(7) })
	rt.ScheduleFault(20, func(rt *Runtime) { rt.Rejoin(7, RejoinStale, rng) })
	rt.ScheduleFault(30, func(rt *Runtime) { rt.Crash(3) })
	rt.ScheduleFault(30, func(rt *Runtime) { rt.Rejoin(3, RejoinResample, rng) })
	res, err := rt.Run(context.Background(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	var crashed []int
	for v := 0; v < n; v++ {
		if rt.Crashed(graph.NodeID(v)) {
			crashed = append(crashed, v)
		}
	}
	got := fmt.Sprintf("stabilized=%v activations=%d faults=%d maxwait=%d end=%d crashed=%v labels=%v\nlog=%v",
		res.Stabilized, res.Activations, res.Faults, res.MaxWaitTicks, res.End, crashed, rt.Labels(), log)
	const want = "stabilized=true activations=15 faults=9 maxwait=25 end=55 crashed=[1 2 4] labels=[3 2 0 1 1 2 3 3]\n" +
		"log=[10:0 10:1 10:3 10:4 10:6 10:7 20:1 20:7 20:0 25:5 30:0 35:6 40:3 45:7 55:0]"
	if got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}

// A horizon of 2^62 ticks (2^52 rounds) or more is refused: a tick must fit
// in a node's state word above its two flag bits, and the tick count
// horizonRounds·TicksPerRound would wrap at 2^54 rounds (2^60 rounds once
// read as a 64-tick horizon, so a run stopped at its first event as "not
// stabilized"). The largest allowed horizon runs as usual.
func TestRunRejectsHorizonPastTickRange(t *testing.T) {
	p, err := core.NewUniformProtocol(graph.Ring(4), core.BinarySpace(),
		func(_ []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = 0; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	for _, rounds := range []uint64{1 << 52, 1<<52 + 1, 1 << 54, 1 << 60, 1<<64 - 1} {
		rt, err := New(p, make(core.Input, 4), make(core.Labeling, 4), syncDaemon(4), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := rt.Run(context.Background(), rounds); err == nil {
			t.Errorf("horizon %d rounds: no error (Stabilized %v, End %d)", rounds, res.Stabilized, res.End)
		}
	}
	rt, err := New(p, make(core.Input, 4), make(core.Labeling, 4), syncDaemon(4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.ScheduleFault(100, func(rt *Runtime) { rt.noteFault(); rt.setLabel(0, 1) })
	res, err := rt.Run(context.Background(), 1<<52-1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized || res.Faults != 1 || res.End != 2*TicksPerRound {
		t.Fatalf("horizon 2^52-1 rounds: Stabilized %v Faults %d End %d, want true, 1, %d",
			res.Stabilized, res.Faults, res.End, 2*TicksPerRound)
	}
}

// A node that never becomes dirty again still appears in the steps a
// ScheduleDaemon generates for the others; its queue must not keep them.
// Nodes 0–6 form a NOT ring, which has no fixed point, nodes 7–15 a copy
// ring whose all-zero labeling is one. Under a random 3-fair schedule,
// every queue stays within the generated lookahead of a few steps instead
// of growing with the 20,000 rounds of the run.
func TestScheduleDaemonQueuesStayBounded(t *testing.T) {
	const n, rounds = 16, 20_000
	var edges []graph.Edge
	reactions := make([]core.Reaction, n)
	for v := 0; v < n; v++ {
		next, flip := (v+1)%7, core.Label(1)
		if v >= 7 {
			next, flip = 7+(v-6)%9, 0
		}
		edges = append(edges, graph.Edge{From: graph.NodeID(v), To: graph.NodeID(next)})
		reactions[v] = func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = in[0] ^ flip
			return 0
		}
	}
	p, err := core.NewProtocol(graph.MustNew(n, edges), core.BinarySpace(), reactions)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.NewRandomRFair(n, 3, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromSchedule(sched, n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(p, make(core.Input, n), make(core.Labeling, n), d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := rt.Run(context.Background(), rounds); err != nil || res.Stabilized {
		t.Fatalf("Run = %+v, %v; want an oscillation cut at the horizon", res, err)
	}
	for v, q := range d.next {
		if len(q) > 8 {
			t.Fatalf("node %d queues %d steps after %d rounds", v, len(q), rounds)
		}
	}
}
