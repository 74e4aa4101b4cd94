package commcc

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

func bitsOf(v uint64, n int) []core.Bit {
	out := make([]core.Bit, n)
	for i := 0; i < n; i++ {
		out[i] = core.Bit((v >> uint(i)) & 1)
	}
	return out
}

// allUniformLabelings enumerates every labeling in which each node emits
// one bit to all neighbors — after one synchronous step, every labeling of
// these gadgets is of this form, so checking them all is exhaustive up to
// one transient step.
func allUniformLabelings(g *graph.Graph, n int) []core.Labeling {
	var out []core.Labeling
	for v := uint64(0); v < 1<<uint(n); v++ {
		l := core.UniformLabeling(g, 0)
		for node := 0; node < n; node++ {
			for _, id := range g.Out(graph.NodeID(node)) {
				l[id] = core.Label((v >> uint(node)) & 1)
			}
		}
		out = append(out, l)
	}
	return out
}

func TestEqualityGadgetOscillatesWhenEqual(t *testing.T) {
	for _, n := range []int{5, 6} {
		cap, err := Capacity(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		for trial := 0; trial < 4; trial++ {
			x := bitsOf(rng.Uint64(), cap)
			gd, err := NewEqualityGadget(n, x, x)
			if err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []core.Bit{0, 1} {
				res, err := sim.RunSynchronous(gd.Protocol, make(core.Input, n),
					gd.EqualityOscillationStart(alpha), 50*cap)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != sim.Oscillating && res.Status != sim.OutputStable {
					t.Fatalf("n=%d x=y: status %v, want a labeling cycle", n, res.Status)
				}
				if res.CycleLen == 0 || res.CycleLen%cap != 0 && cap%res.CycleLen != 0 {
					// The snake walk has period |S| (possibly folded).
					t.Logf("n=%d: cycle length %d vs |S|=%d", n, res.CycleLen, cap)
				}
				if res.Status == sim.OutputStable {
					// Labels must still be cycling (not a fixed point).
					if core.IsStable(gd.Protocol, make(core.Input, n), res.Final.Labels) {
						t.Fatalf("n=%d x=y: labels reached a fixed point", n)
					}
				}
			}
		}
	}
}

func TestEqualityGadgetStabilizesWhenDifferent(t *testing.T) {
	// Exhaustive over all per-node-uniform initial labelings (every
	// labeling becomes one of these after one synchronous step).
	n := 6
	cap, err := Capacity(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 2))
	for trial := 0; trial < 3; trial++ {
		x := bitsOf(rng.Uint64(), cap)
		y := append([]core.Bit(nil), x...)
		flip := rng.IntN(cap)
		y[flip] = 1 - y[flip]
		gd, err := NewEqualityGadget(n, x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, l0 := range allUniformLabelings(gd.Protocol.Graph(), n) {
			res, err := sim.RunSynchronous(gd.Protocol, make(core.Input, n), l0, 20*cap+100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != sim.LabelStable {
				t.Fatalf("x≠y: status %v from %v, want label-stable", res.Status, l0)
			}
		}
		// And from fully random (non-uniform) labelings.
		for k := 0; k < 20; k++ {
			l0 := core.RandomLabeling(gd.Protocol.Graph(), gd.Protocol.Space(), rng)
			res, err := sim.RunSynchronous(gd.Protocol, make(core.Input, n), l0, 20*cap+100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != sim.LabelStable {
				t.Fatalf("x≠y: status %v from random labeling", res.Status)
			}
		}
	}
}

func TestEqualityGadgetStableLabelingIsCanonical(t *testing.T) {
	n := 5
	cap, _ := Capacity(n)
	x := make([]core.Bit, cap)
	y := make([]core.Bit, cap)
	y[0] = 1
	gd, err := NewEqualityGadget(n, x, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSynchronous(gd.Protocol, make(core.Input, n),
		core.UniformLabeling(gd.Protocol.Graph(), 0), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable {
		t.Fatalf("status %v", res.Status)
	}
	// Stable labeling must be (1, 0, 0^{n-2}).
	g := gd.Protocol.Graph()
	for node := 0; node < n; node++ {
		want := core.Label(0)
		if node == 0 {
			want = 1
		}
		for _, id := range g.Out(graph.NodeID(node)) {
			if res.Final.Labels[id] != want {
				t.Fatalf("node %d emits %d, want %d", node, res.Final.Labels[id], want)
			}
		}
	}
}

func TestDisjointnessGadgetOscillatesWhenIntersecting(t *testing.T) {
	n := 6
	cap, err := Capacity(n)
	if err != nil {
		t.Fatal(err)
	}
	q := cap / 2
	x := make([]core.Bit, q)
	y := make([]core.Bit, q)
	common := 1
	x[common], y[common] = 1, 1
	x[0] = 1 // extra non-common elements
	gd, err := NewDisjointnessGadget(n, x, y, q)
	if err != nil {
		t.Fatal(err)
	}
	script, err := schedule.NewScripted(gd.DisjOscillationSchedule())
	if err != nil {
		t.Fatal(err)
	}
	period := q + 2
	res, err := sim.Run(gd.Protocol, make(core.Input, n), gd.DisjOscillationStart(common), script,
		sim.Options{MaxSteps: 100 * period, DetectCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.Oscillating {
		t.Fatalf("intersecting sets: status %v, want oscillating", res.Status)
	}
	// The schedule must be (q+2)-fair.
	a := schedule.NewAuditor(n, period)
	for rep := 0; rep < 3; rep++ {
		for _, s := range gd.DisjOscillationSchedule() {
			if err := a.Observe(s); err != nil {
				t.Fatalf("oscillation schedule not (q+2)-fair: %v", err)
			}
		}
	}
}

func TestDisjointnessGadgetStabilizesWhenDisjoint(t *testing.T) {
	n := 6
	cap, err := Capacity(n)
	if err != nil {
		t.Fatal(err)
	}
	q := cap / 2
	x := make([]core.Bit, q)
	y := make([]core.Bit, q)
	for i := 0; i < q; i++ {
		if i%2 == 0 {
			x[i] = 1
		} else {
			y[i] = 1
		}
	}
	gd, err := NewDisjointnessGadget(n, x, y, q)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous from all uniform configs.
	for _, l0 := range allUniformLabelings(gd.Protocol.Graph(), n) {
		res, err := sim.RunSynchronous(gd.Protocol, make(core.Input, n), l0, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.LabelStable {
			t.Fatalf("disjoint: status %v, want label-stable", res.Status)
		}
	}
	// Under random (q+2)-fair schedules too.
	for trial := 0; trial < 10; trial++ {
		sched, err := schedule.NewRandomRFair(n, q+2, 0.3, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(trial), 9))
		l0 := core.RandomLabeling(gd.Protocol.Graph(), gd.Protocol.Space(), rng)
		res, err := sim.Run(gd.Protocol, make(core.Input, n), l0, sched, sim.Options{MaxSteps: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.LabelStable {
			t.Fatalf("disjoint trial %d: status %v, want label-stable", trial, res.Status)
		}
	}
}

func TestGadgetValidation(t *testing.T) {
	if _, err := NewEqualityGadget(3, nil, nil); err == nil {
		t.Error("n<5 should fail")
	}
	if _, err := NewEqualityGadget(5, make([]core.Bit, 2), make([]core.Bit, 2)); err == nil {
		t.Error("wrong vector length should fail")
	}
	cap, _ := Capacity(5)
	if _, err := NewDisjointnessGadget(5, make([]core.Bit, 3), make([]core.Bit, 3), cap+1); err == nil {
		t.Error("q not dividing |S| should fail")
	}
}

func TestCapacityGrowsExponentially(t *testing.T) {
	// |S| = s(n-2) ≥ λ·2^{n-2}: the communication lower bound's engine.
	c5, err := Capacity(5) // Q_3: 6
	if err != nil {
		t.Fatal(err)
	}
	c6, err := Capacity(6) // Q_4: 8
	if err != nil {
		t.Fatal(err)
	}
	c7, err := Capacity(7) // Q_5: 14
	if err != nil {
		t.Fatal(err)
	}
	if c5 != 6 || c6 != 8 || c7 != 14 {
		t.Errorf("capacities (%d,%d,%d), want (6,8,14)", c5, c6, c7)
	}
}
