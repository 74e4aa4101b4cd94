package async

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/bestresponse"
	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

func xorFunc(x core.Input) core.Bit {
	var v core.Bit
	for _, b := range x {
		v ^= b
	}
	return v
}

func TestRuntimeMatchesReferenceSimulator(t *testing.T) {
	// Same protocol, same schedule script → identical label trajectories.
	g := graph.Clique(5)
	p, err := protocols.TreeProtocol(g, xorFunc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(44, 44))
	for trial := 0; trial < 8; trial++ {
		x := core.InputFromUint(rng.Uint64N(32), 5)
		l0 := core.RandomLabeling(g, p.Space(), rng)
		// Random activation script.
		script := make([][]graph.NodeID, 7)
		for i := range script {
			var s []graph.NodeID
			for v := 0; v < 5; v++ {
				if rng.IntN(2) == 0 {
					s = append(s, graph.NodeID(v))
				}
			}
			if len(s) == 0 {
				s = []graph.NodeID{graph.NodeID(rng.IntN(5))}
			}
			script[i] = s
		}
		if err := Verify(p, x, l0, script, 200); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// synchronous is the one-set schedule script that activates every node.
func synchronous(n int) [][]graph.NodeID {
	all := make([]graph.NodeID, n)
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	return [][]graph.NodeID{all}
}

// TestRuntimeRunStabilizes drives the runtime through the reference
// simulator's whole synchronous run: the label trajectories agree step for
// step up to the step at which sim reports label stability.
func TestRuntimeRunStabilizes(t *testing.T) {
	g := graph.BidirectionalRing(5)
	p, err := protocols.TreeProtocol(g, xorFunc)
	if err != nil {
		t.Fatal(err)
	}
	x := core.Input{1, 1, 0, 1, 0}
	l0 := core.UniformLabeling(g, 0)
	ref, err := sim.RunSynchronous(p, x, l0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != sim.LabelStable {
		t.Fatalf("reference status %v, want label-stable", ref.Status)
	}
	for _, y := range ref.Outputs {
		if y != xorFunc(x) {
			t.Error("wrong converged output")
		}
	}
	if err := Verify(p, x, l0, synchronous(g.N()), ref.Steps); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeDetectsOscillation runs the runtime around the configuration
// cycles the reference simulator detects and checks that the trajectories
// agree through one full traversal of the cycle. Forward NOT on a 4-ring
// cycles its labels forever; it oscillates when each node outputs its label
// and is output-stable when the output is constant. BAD GADGET under the
// synchronous schedule is output-stable too.
func TestRuntimeDetectsOscillation(t *testing.T) {
	gadget, err := bestresponse.BadGadget().Protocol()
	if err != nil {
		t.Fatal(err)
	}
	forwardNot := func(output func(core.Label) core.Bit) *core.Protocol {
		p, err := core.NewUniformProtocol(graph.Ring(4), core.BinarySpace(),
			func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
				out[0] = 1 - in[0]
				return output(out[0])
			})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name string
		p    *core.Protocol
		l0   core.Labeling
		want sim.Status
	}{
		{"forward-not-ring4", forwardNot(func(l core.Label) core.Bit { return core.Bit(l) }),
			core.Labeling{0, 1, 0, 0}, sim.Oscillating},
		{"forward-not-ring4-const", forwardNot(func(core.Label) core.Bit { return 1 }),
			core.Labeling{0, 1, 0, 0}, sim.OutputStable},
		{"bad-gadget", gadget, core.UniformLabeling(gadget.Graph(), 0), sim.OutputStable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.p.Graph().N()
			x := make(core.Input, n)
			ref, err := sim.Run(tc.p, x, tc.l0, schedule.Synchronous{N: n},
				sim.Options{MaxSteps: 10000, DetectCycles: true})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Status != tc.want || ref.CycleLen == 0 {
				t.Fatalf("reference status %v (cycle %d), want %v on a cycle", ref.Status, ref.CycleLen, tc.want)
			}
			if err := Verify(tc.p, x, tc.l0, synchronous(n), ref.Steps+ref.CycleLen); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRuntimeLifecycle(t *testing.T) {
	g := graph.Ring(3)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = in[0]
			return 0
		})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(p, make(core.Input, 3), core.UniformLabeling(g, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step([]graph.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // double close is safe
	if _, err := rt.Step([]graph.NodeID{0}); err == nil {
		t.Error("Step after Close should fail")
	}
}

func TestRuntimeValidation(t *testing.T) {
	g := graph.Ring(3)
	p, _ := core.NewUniformProtocol(g, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = in[0]
			return 0
		})
	if _, err := New(p, make(core.Input, 2), core.UniformLabeling(g, 0)); err == nil {
		t.Error("input mismatch should fail")
	}
	if _, err := New(p, make(core.Input, 3), core.Labeling{0}); err == nil {
		t.Error("labeling mismatch should fail")
	}
}

func TestRuntimePartialActivationSemantics(t *testing.T) {
	// Activating a subset must leave other nodes' labels untouched, and
	// activated nodes must read pre-step labels (tested by a chain of
	// incrementers where iterated reads would differ).
	g := graph.Ring(4)
	p, err := core.NewUniformProtocol(g, core.MustLabelSpace(64),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = in[0] + 1
			return 0
		})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(p, make(core.Input, 4), core.Labeling{0, 10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Step([]graph.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := rt.Labels()
	sum := core.Label(0)
	for _, v := range got {
		sum += v
	}
	if sum != 0+10+20+30+4 {
		t.Errorf("labels %v: nodes must read pre-step values", got)
	}
}
