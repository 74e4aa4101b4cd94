package des_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/des"
	"stateless/internal/graph"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

// syncDaemon is the synchronous schedule over n nodes as a daemon.
func syncDaemon(n int) *des.ScheduleDaemon {
	d, err := des.FromSchedule(schedule.Synchronous{N: n}, n, 0)
	if err != nil {
		panic(err)
	}
	return d
}

// syncInstances are the protocol instances the sync-equivalence tests
// sweep: stabilizing members of the zoo across topologies.
func syncInstances(t *testing.T) []struct {
	name string
	p    *core.Protocol
	x    core.Input
} {
	t.Helper()
	satRing, err := protocols.SaturatingRing(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	cube := graph.Hypercube(3)
	satNet, err := protocols.SaturatingNet(cube, 3)
	if err != nil {
		t.Fatal(err)
	}
	ring := graph.BidirectionalRing(10)
	bfs, err := protocols.BFSSpanningTree(ring, 7)
	if err != nil {
		t.Fatal(err)
	}
	bfsX := make(core.Input, ring.N())
	bfsX[0] = 1
	return []struct {
		name string
		p    *core.Protocol
		x    core.Input
	}{
		{"saturating-ring9", satRing, make(core.Input, 9)},
		{"saturating-cube3", satNet, make(core.Input, cube.N())},
		{"bfs-bidir-ring10", bfs, bfsX},
	}
}

// Under the synchronous schedule the event runtime is step-for-step
// equivalent to the reference step loop — identical final labelings and
// identical stabilization round — even though it only ever activates dirty
// nodes.
func TestSynchronousDaemonMatchesSim(t *testing.T) {
	for _, in := range syncInstances(t) {
		t.Run(in.name, func(t *testing.T) {
			g := in.p.Graph()
			for seed := uint64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewPCG(seed, seed))
				l0 := core.RandomLabeling(g, in.p.Space(), rng)

				want, err := referenceRun(in.p, in.x, l0, schedule.Synchronous{N: g.N()},
					sim.Options{MaxSteps: 1 << 16, DetectCycles: true})
				if err != nil {
					t.Fatal(err)
				}
				if want.Status != sim.LabelStable {
					t.Fatalf("seed %d: reference status %v, want label-stable", seed, want.Status)
				}

				rt, err := des.New(in.p, in.x, l0, syncDaemon(g.N()), des.Config{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.Run(context.Background(), 1<<16)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Stabilized {
					t.Fatalf("seed %d: des did not stabilize", seed)
				}
				if !rt.Labels().Equal(want.Final.Labels) {
					t.Fatalf("seed %d: final labelings differ:\ndes %v\nreference %v",
						seed, rt.Labels(), want.Final.Labels)
				}
				if got.StabilizedAt%des.TicksPerRound != 0 {
					t.Fatalf("seed %d: sync label change off a round boundary: tick %d",
						seed, got.StabilizedAt)
				}
				if round := got.StabilizedAt / des.TicksPerRound; int(round) != want.StabilizedAt {
					t.Fatalf("seed %d: stabilization round %d, reference says %d",
						seed, round, want.StabilizedAt)
				}
			}
		})
	}
}

// A non-stabilizing protocol never drains the queue; truncating both
// executions at the same horizon must still produce identical labelings.
func TestSynchronousDaemonMatchesSimOscillating(t *testing.T) {
	p, err := protocols.CopyRing(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, g.N())
	const horizon = 47
	for seed := uint64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		l0 := core.RandomLabeling(g, p.Space(), rng)
		want, err := referenceRun(p, x, l0, schedule.Synchronous{N: g.N()}, sim.Options{MaxSteps: horizon})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := des.New(p, x, l0, syncDaemon(g.N()), des.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Run(context.Background(), horizon)
		if err != nil {
			t.Fatal(err)
		}
		uniform := true
		for _, l := range l0[1:] {
			if l != l0[0] {
				uniform = false
			}
		}
		if got.Stabilized != uniform {
			t.Fatalf("seed %d: stabilized=%v on copy-ring (uniform=%v)", seed, got.Stabilized, uniform)
		}
		if !rt.Labels().Equal(want.Final.Labels) {
			t.Fatalf("seed %d: truncated labelings differ:\ndes %v\nreference %v",
				seed, rt.Labels(), want.Final.Labels)
		}
	}
}

// randomProtocol draws a protocol on a small graph (unidirectional ring,
// bidirectional ring, clique or random strongly connected digraph, 2–6
// nodes) over |Σ| ∈ {2, 3, 4}. Each node's reaction is a seeded hash of its
// in-labels and input; a per-protocol stickiness sends that share of the
// table to a fixed per-edge label, so the draws span label-stable,
// output-stable, oscillating and exhausted runs. Outputs are a hash bit, a
// per-node constant or a test of the first in-label.
func randomProtocol(rng *rand.Rand) (*core.Protocol, error) {
	n := 2 + rng.IntN(5)
	var g *graph.Graph
	switch rng.IntN(4) {
	case 0:
		g = graph.Ring(n)
	case 1:
		g = graph.BidirectionalRing(max(n, 3))
	case 2:
		g = graph.Clique(min(n, 5))
	default:
		g = graph.RandomStronglyConnected(n, 0.3, rng)
	}
	space := core.MustLabelSpace(2 + rng.Uint64N(3))
	sticky := rng.Uint64N(4)
	outMode := rng.IntN(3)
	seed := rng.Uint64()
	reactions := make([]core.Reaction, g.N())
	for v := range reactions {
		sv := seed ^ uint64(v+1)*0x9e3779b97f4a7c15
		reactions[v] = func(in []core.Label, input core.Bit, out []core.Label) core.Bit {
			h := sv ^ uint64(input)
			for _, l := range in {
				h = (h ^ uint64(l)) * 0xbf58476d1ce4e5b9
				h ^= h >> 31
			}
			for i := range out {
				h = (h ^ uint64(i)) * 0x94d049bb133111eb
				h ^= h >> 29
				if h%4 < sticky {
					out[i] = core.Label((sv >> (3 * i)) % space.Size())
				} else {
					out[i] = core.Label((h >> 8) % space.Size())
				}
			}
			switch outMode {
			case 0:
				return core.Bit(h >> 63)
			case 1:
				return core.Bit(sv & 1)
			}
			if len(in) > 0 && in[0] == 0 {
				return 1
			}
			return 0
		}
	}
	return core.NewProtocol(g, space, reactions)
}

// randomSchedule draws one schedule kind over n nodes, built twice so the
// two runs under comparison each get a fresh copy of a stateful schedule.
// Scripts are random subsets, so some skip a node every period, and a few
// schedules name a node outside the graph.
func randomSchedule(rng *rand.Rand, n int) (string, func() schedule.Schedule) {
	switch k := rng.IntN(10); {
	case k < 2:
		return "sync", func() schedule.Schedule { return schedule.Synchronous{N: n} }
	case k < 4:
		return "roundrobin", func() schedule.Schedule { return schedule.RoundRobin{N: n} }
	case k < 7:
		steps := make([][]graph.NodeID, 1+rng.IntN(5))
		for i := range steps {
			for v := 0; v < n; v++ {
				if rng.IntN(3) == 0 {
					steps[i] = append(steps[i], graph.NodeID(v))
				}
			}
		}
		if rng.IntN(8) == 0 {
			i := rng.IntN(len(steps))
			steps[i] = append(steps[i], graph.NodeID(n))
		}
		return fmt.Sprintf("scripted%v", steps), func() schedule.Schedule { return &schedule.Scripted{Steps: steps} }
	case k < 9:
		r, p, seed := 1+rng.IntN(4), rng.Float64()/2, rng.Uint64()
		return fmt.Sprintf("rfair(r=%d)", r), func() schedule.Schedule {
			s, err := schedule.NewRandomRFair(n, r, p, seed)
			if err != nil {
				panic(err)
			}
			return s
		}
	default:
		m := n - 1 + 2*rng.IntN(2) // one node short or one too many
		if rng.IntN(2) == 0 {
			return fmt.Sprintf("sync(N=%d)", m), func() schedule.Schedule { return schedule.Synchronous{N: m} }
		}
		return fmt.Sprintf("roundrobin(N=%d)", m), func() schedule.Schedule { return schedule.RoundRobin{N: m} }
	}
}

// sim.Run on the event runtime must reproduce the reference step loop
// exactly on protocols nobody hand-picked: the same Status, Steps,
// StabilizedAt, CycleLen, Final labeling and outputs and converged
// Outputs, or the same error, under every schedule kind, with cycle
// detection on and off and step bounds that cut some runs short.
func TestSimRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 25))
	counts := map[string]int{}
	for trial := 0; trial < 5000; trial++ {
		p, err := randomProtocol(rng)
		if err != nil {
			t.Fatal(err)
		}
		g := p.Graph()
		x := make(core.Input, g.N())
		for v := range x {
			x[v] = core.Bit(rng.IntN(2))
		}
		l0 := core.RandomLabeling(g, p.Space(), rng)
		name, mk := randomSchedule(rng, g.N())
		opts := sim.Options{
			MaxSteps:     []int{1, 3, 7, 20, 64, 300, 2000}[rng.IntN(7)],
			DetectCycles: rng.IntN(3) != 0,
		}
		want, wantErr := referenceRun(p, x, l0, mk(), opts)
		got, gotErr := sim.Run(p, x, l0, mk(), opts)
		where := fmt.Sprintf("trial %d: %s on %v, Σ=%d, x=%v, l0=%v, %+v", trial, name, g, p.Space().Size(), x, l0, opts)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s:\nerror %v, reference %v", where, gotErr, wantErr)
			}
			counts["error"]++
			continue
		}
		if got.Status != want.Status || got.Steps != want.Steps || got.StabilizedAt != want.StabilizedAt ||
			got.CycleLen != want.CycleLen || !got.Final.Labels.Equal(want.Final.Labels) ||
			fmt.Sprint(got.Final.Outputs) != fmt.Sprint(want.Final.Outputs) ||
			fmt.Sprint(got.Outputs) != fmt.Sprint(want.Outputs) {
			t.Fatalf("%s:\ngot       %+v\nreference %+v", where, got, want)
		}
		counts[want.Status.String()]++
	}
	// Every outcome must be represented, or the sweep proves little.
	for _, k := range []string{"label-stable", "output-stable", "oscillating", "exhausted", "error"} {
		if counts[k] < 20 {
			t.Errorf("only %d %s runs in the sweep: %v", counts[k], k, counts)
		}
	}
	t.Logf("outcomes: %v", counts)
}
