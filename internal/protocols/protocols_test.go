package protocols

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

func TestExample1TwoStableLabelings(t *testing.T) {
	for n := 2; n <= 5; n++ {
		p, err := Example1Clique(n)
		if err != nil {
			t.Fatal(err)
		}
		g := p.Graph()
		x := make(core.Input, n)
		if !core.IsStable(p, x, core.UniformLabeling(g, 0)) {
			t.Errorf("n=%d: all-zero labeling should be stable", n)
		}
		if !core.IsStable(p, x, core.UniformLabeling(g, 1)) {
			t.Errorf("n=%d: all-one labeling should be stable", n)
		}
	}
}

func TestExample1Oscillates(t *testing.T) {
	// Under the (n−1)-fair script from the proof, the protocol oscillates
	// forever: verify the labeling pattern rotates with period n.
	for n := 3; n <= 6; n++ {
		p, _ := Example1Clique(n)
		g := p.Graph()
		script, err := schedule.NewScripted(Example1OscillationSchedule(n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(p, make(core.Input, n), Example1OscillationStart(g), script,
			sim.Options{MaxSteps: 50 * n, DetectCycles: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.Oscillating {
			t.Errorf("n=%d: status = %v, want oscillating", n, res.Status)
		}
	}
}

func TestExample1ScheduleIsFair(t *testing.T) {
	// The oscillation schedule must be (n−1)-fair but not (n−2)-fair.
	for n := 3; n <= 8; n++ {
		steps := Example1OscillationSchedule(n)
		a := schedule.NewAuditor(n, n-1)
		for rep := 0; rep < 5; rep++ {
			for _, s := range steps {
				if err := a.Observe(s); err != nil {
					t.Fatalf("n=%d: schedule not (n-1)-fair: %v", n, err)
				}
			}
		}
		if n >= 4 {
			a2 := schedule.NewAuditor(n, n-2)
			violated := false
			for rep := 0; rep < 5 && !violated; rep++ {
				for _, s := range steps {
					if err := a2.Observe(s); err != nil {
						violated = true
						break
					}
				}
			}
			if !violated {
				t.Errorf("n=%d: schedule unexpectedly (n-2)-fair", n)
			}
		}
	}
}

func TestExample1SynchronousConverges(t *testing.T) {
	// Under the synchronous (1-fair) schedule the protocol always
	// label-stabilizes, from every initial labeling (exhaustive for n=3).
	p, _ := Example1Clique(3)
	g := p.Graph()
	x := make(core.Input, 3)
	for v := uint64(0); v < 64; v++ {
		l := make(core.Labeling, g.M())
		for i := range l {
			l[i] = core.Label((v >> i) & 1)
		}
		res, err := sim.RunSynchronous(p, x, l, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.LabelStable {
			t.Fatalf("init %06b: status %v, want label-stable", v, res.Status)
		}
	}
}

func xorFunc(x core.Input) core.Bit {
	var v core.Bit
	for _, b := range x {
		v ^= b
	}
	return v
}

func majFunc(x core.Input) core.Bit {
	cnt := 0
	for _, b := range x {
		cnt += int(b)
	}
	return core.BitOf(2*cnt >= len(x))
}

func TestTreeProtocolComputes(t *testing.T) {
	funcs := map[string]BoolFunc{"xor": xorFunc, "maj": majFunc}
	graphs := map[string]*graph.Graph{
		"uni ring 5": graph.Ring(5),
		"bi ring 4":  graph.BidirectionalRing(4),
		"clique 4":   graph.Clique(4),
		"star 5":     graph.Star(5),
		"random": graph.RandomStronglyConnected(6, 0.3,
			rand.New(rand.NewPCG(9, 9))),
	}
	for gname, g := range graphs {
		for fname, f := range funcs {
			t.Run(gname+"/"+fname, func(t *testing.T) {
				p, err := TreeProtocol(g, f)
				if err != nil {
					t.Fatal(err)
				}
				n := g.N()
				for v := uint64(0); v < 1<<uint(n); v++ {
					x := core.InputFromUint(v, n)
					res, err := sim.RunSynchronous(p, x, core.UniformLabeling(g, 0), 10*n)
					if err != nil {
						t.Fatal(err)
					}
					if res.Status != sim.LabelStable {
						t.Fatalf("input %s: %v, want label-stable", x, res.Status)
					}
					for node, y := range res.Outputs {
						if y != f(x) {
							t.Fatalf("input %s node %d: output %d, want %d", x, node, y, f(x))
						}
					}
					if res.StabilizedAt > 2*n {
						t.Errorf("input %s: stabilized at %d > 2n=%d", x, res.StabilizedAt, 2*n)
					}
				}
			})
		}
	}
}

func TestTreeProtocolSelfStabilizes(t *testing.T) {
	// Property: from random garbage initial labelings, the tree protocol
	// still label-stabilizes to the correct value within 2n rounds.
	g := graph.BidirectionalRing(5)
	p, err := TreeProtocol(g, majFunc)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, inBits uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		l0 := core.RandomLabeling(g, p.Space(), rng)
		x := core.InputFromUint(uint64(inBits), 5)
		res, err := sim.RunSynchronous(p, x, l0, 100)
		if err != nil || res.Status != sim.LabelStable {
			return false
		}
		for _, y := range res.Outputs {
			if y != majFunc(x) {
				return false
			}
		}
		return res.StabilizedAt <= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTreeProtocolUnderRFairSchedules(t *testing.T) {
	// The protocol is label-stabilizing under arbitrary fair schedules,
	// not just synchronous ones.
	g := graph.Clique(4)
	p, err := TreeProtocol(g, xorFunc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 15; trial++ {
		sched, err := schedule.NewRandomRFair(4, 3, 0.4, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		x := core.InputFromUint(rng.Uint64N(16), 4)
		l0 := core.RandomLabeling(g, p.Space(), rng)
		res, err := sim.Run(p, x, l0, sched, sim.Options{MaxSteps: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.LabelStable {
			t.Fatalf("trial %d: %v, want label-stable", trial, res.Status)
		}
		for _, y := range res.Outputs {
			if y != xorFunc(x) {
				t.Fatalf("trial %d: wrong output", trial)
			}
		}
	}
}

func TestTreeProtocolLabelComplexity(t *testing.T) {
	// Proposition 2.3: L_n = n+1.
	for n := 3; n <= 8; n++ {
		g := graph.Ring(n)
		p, err := TreeProtocol(g, xorFunc)
		if err != nil {
			t.Fatal(err)
		}
		if p.LabelBits() != n+1 {
			t.Errorf("n=%d: label bits = %d, want %d", n, p.LabelBits(), n+1)
		}
	}
}

func TestTreeProtocolErrors(t *testing.T) {
	if _, err := TreeProtocol(graph.Ring(3), nil); err == nil {
		t.Error("nil function should fail")
	}
	weak := graph.MustNew(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if _, err := TreeProtocol(weak, xorFunc); err == nil {
		t.Error("non-strongly-connected graph should fail")
	}
}

func TestSlowUnidirectionalRoundComplexity(t *testing.T) {
	// Lemma C.2(2): from the all-zero labeling, stabilization takes
	// exactly n(q−1) rounds (within the general bound n·q of C.2(1)).
	tests := []struct {
		n int
		q uint64
	}{
		{3, 2}, {3, 4}, {4, 3}, {5, 5}, {6, 4},
	}
	for _, tt := range tests {
		p, err := SlowUnidirectional(tt.n, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		g := p.Graph()
		res, err := sim.RunSynchronous(p, make(core.Input, tt.n), core.UniformLabeling(g, 0), 10*tt.n*int(tt.q))
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.LabelStable {
			t.Fatalf("n=%d q=%d: %v, want label-stable", tt.n, tt.q, res.Status)
		}
		want := tt.n * (int(tt.q) - 1)
		if res.StabilizedAt != want {
			t.Errorf("n=%d q=%d: stabilized at %d, want n(q-1)=%d", tt.n, tt.q, res.StabilizedAt, want)
		}
		bound := UnidirectionalRoundBound(tt.n, tt.q)
		if uint64(res.StabilizedAt) > bound {
			t.Errorf("n=%d q=%d: %d exceeds Lemma C.2(1) bound %d", tt.n, tt.q, res.StabilizedAt, bound)
		}
		for _, y := range res.Outputs {
			if y != 1 {
				t.Error("all outputs should converge to 1")
			}
		}
	}
}

func TestSlowUnidirectionalValidation(t *testing.T) {
	if _, err := SlowUnidirectional(1, 2); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := SlowUnidirectional(3, 1); err == nil {
		t.Error("q=1 should fail")
	}
	if _, err := Example1Clique(1); err == nil {
		t.Error("Example1Clique(1) should fail")
	}
}
