package sim

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/schedule"
)

// orClique builds the OR protocol on K_n: each node emits 1 everywhere iff
// some incoming label is 1 or its input is 1; output likewise. It
// label-stabilizes with all labels = OR(x) from any initial labeling under
// any fair schedule... except the all-zero-input case with a stray 1, which
// still converges to all-one. It computes OR only from the zero labeling;
// the tests use it for mechanics, not semantics.
func orClique(n int) *core.Protocol {
	g := graph.Clique(n)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(), func(in []core.Label, input core.Bit, out []core.Label) core.Bit {
		any := core.Label(input)
		for _, l := range in {
			any |= l
		}
		for i := range out {
			out[i] = any
		}
		return core.Bit(any)
	})
	if err != nil {
		panic(err)
	}
	return p
}

// xorRing is a protocol on the unidirectional ring that never label-
// stabilizes for some initializations: each node forwards NOT of its
// incoming label. On odd rings there is no fixed point at all.
func notRing(n int) *core.Protocol {
	g := graph.Ring(n)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(), func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
		out[0] = 1 - in[0]
		return core.Bit(out[0])
	})
	if err != nil {
		panic(err)
	}
	return p
}

func TestRunLabelStable(t *testing.T) {
	p := orClique(4)
	g := p.Graph()
	x := core.Input{0, 1, 0, 0}
	res, err := RunSynchronous(p, x, core.UniformLabeling(g, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != LabelStable {
		t.Fatalf("status = %v, want label-stable", res.Status)
	}
	for v, y := range res.Outputs {
		if y != 1 {
			t.Errorf("node %d output %d, want 1 (OR)", v, y)
		}
	}
	if res.StabilizedAt > 2 {
		t.Errorf("OR on clique should stabilize in ≤2 rounds, took %d", res.StabilizedAt)
	}
}

func TestRunOscillating(t *testing.T) {
	p := notRing(3)
	res, err := RunSynchronous(p, make(core.Input, 3), core.Labeling{0, 0, 0}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Oscillating {
		t.Fatalf("status = %v, want oscillating", res.Status)
	}
	if res.CycleLen == 0 {
		t.Error("cycle length should be positive")
	}
}

func TestRunOutputStable(t *testing.T) {
	// A protocol whose labels cycle forever but whose output is constant:
	// unidirectional ring, forward NOT (labels oscillate), output always 1.
	g := graph.Ring(4)
	p, _ := core.NewUniformProtocol(g, core.BinarySpace(), func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
		out[0] = 1 - in[0]
		return 1
	})
	res, err := RunSynchronous(p, make(core.Input, 4), core.Labeling{0, 1, 0, 0}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != OutputStable {
		t.Fatalf("status = %v, want output-stable", res.Status)
	}
	for _, y := range res.Outputs {
		if y != 1 {
			t.Error("converged output should be 1")
		}
	}
}

func TestRunExhausted(t *testing.T) {
	p := notRing(5)
	res, err := Run(p, make(core.Input, 5), core.Labeling{0, 0, 0, 0, 0},
		schedule.Synchronous{N: 5}, Options{MaxSteps: 3}) // no cycle detection
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Exhausted {
		t.Fatalf("status = %v, want exhausted", res.Status)
	}
	if res.Steps != 3 {
		t.Errorf("steps = %d, want 3", res.Steps)
	}
}

func TestRunInputValidation(t *testing.T) {
	p := orClique(3)
	if _, err := Run(p, make(core.Input, 2), core.UniformLabeling(p.Graph(), 0),
		schedule.Synchronous{N: 3}, Options{}); err == nil {
		t.Error("short input should fail")
	}
	if _, err := Run(p, make(core.Input, 3), core.Labeling{0},
		schedule.Synchronous{N: 3}, Options{}); err == nil {
		t.Error("short labeling should fail")
	}
}

func TestRoundComplexity(t *testing.T) {
	p := orClique(3)
	g := p.Graph()
	var inputs []core.Input
	for v := uint64(0); v < 8; v++ {
		inputs = append(inputs, core.InputFromUint(v, 3))
	}
	// From the all-zero labeling the protocol computes OR.
	worst, err := RoundComplexity(context.Background(), p, inputs, []core.Labeling{core.UniformLabeling(g, 0)}, 100, 0,
		func(x core.Input, res Result) error {
			want := core.Bit(0)
			if x.Uint() != 0 {
				want = 1
			}
			for _, y := range res.Outputs {
				if y != want {
					return errWrongOutput
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if worst < 1 || worst > 2 {
		t.Errorf("worst rounds = %d, want 1..2", worst)
	}
}

var errWrongOutput = errBadOutput()

func errBadOutput() error {
	return &outputErr{}
}

type outputErr struct{}

func (*outputErr) Error() string { return "wrong output" }

func TestRunUnderRoundRobin(t *testing.T) {
	// Round-robin activation must also drive the OR clique to the stable
	// all-one labeling when some input is 1.
	p := orClique(4)
	g := p.Graph()
	res, err := Run(p, core.Input{0, 0, 0, 1}, core.UniformLabeling(g, 0),
		schedule.RoundRobin{N: 4}, Options{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != LabelStable {
		t.Fatalf("status = %v, want label-stable", res.Status)
	}
}

func TestRunUnderRandomRFair(t *testing.T) {
	p := orClique(5)
	g := p.Graph()
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 10; trial++ {
		sched, err := schedule.NewRandomRFair(5, 3, 0.3, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		l0 := core.RandomLabeling(g, p.Space(), rng)
		res, err := Run(p, core.Input{1, 0, 0, 0, 0}, l0, sched, Options{MaxSteps: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != LabelStable {
			t.Fatalf("trial %d: status = %v, want label-stable", trial, res.Status)
		}
	}
}

func TestCycleDetectionWithScriptedPeriod(t *testing.T) {
	// Scripted schedule of period 2 on the NOT-ring; with the period read
	// from the script the runner must classify the run as oscillating
	// rather than hang.
	p := notRing(4)
	s, err := schedule.NewScripted([][]graph.NodeID{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, make(core.Input, 4), core.Labeling{0, 0, 1, 0}, s,
		Options{MaxSteps: 10000, DetectCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Oscillating && res.Status != LabelStable {
		t.Fatalf("status = %v, want a verdict", res.Status)
	}
}

// A random r-fair schedule has no period: a labeling that recurs there
// proves no cycle, so asking for cycle detection is an error, not a run.
func TestDetectCyclesRejectsAperiodicSchedule(t *testing.T) {
	p := orClique(3)
	sched, err := schedule.NewRandomRFair(3, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, make(core.Input, 3), core.UniformLabeling(p.Graph(), 0), sched,
		Options{MaxSteps: 100, DetectCycles: true})
	if !errors.Is(err, ErrAperiodic) {
		t.Fatalf("err = %v, want ErrAperiodic", err)
	}
}

func TestStatusString(t *testing.T) {
	tests := map[Status]string{
		LabelStable:  "label-stable",
		OutputStable: "output-stable",
		Oscillating:  "oscillating",
		Exhausted:    "exhausted",
		Status(99):   "Status(99)",
	}
	for s, want := range tests {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}
