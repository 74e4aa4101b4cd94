package verify

import (
	"errors"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/protocols"
)

func TestStableLabelingsExample1(t *testing.T) {
	// Example 1 on K_n has exactly two stable labelings: 0^{n(n-1)} and
	// 1^{n(n-1)}.
	p, err := protocols.Example1Clique(3)
	if err != nil {
		t.Fatal(err)
	}
	stable, err := StableLabelings(p, make(core.Input, 3), 1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stable) != 2 {
		t.Fatalf("got %d stable labelings, want 2", len(stable))
	}
	g := p.Graph()
	found := map[string]bool{}
	for _, l := range stable {
		found[l.Key()] = true
	}
	if !found[core.UniformLabeling(g, 0).Key()] || !found[core.UniformLabeling(g, 1).Key()] {
		t.Error("stable labelings should be exactly all-0 and all-1")
	}
}

func TestStableLabelingsLimit(t *testing.T) {
	p, _ := protocols.Example1Clique(4) // 2^12 labelings
	if _, err := StableLabelings(p, make(core.Input, 4), 100, 0); !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Errorf("want ErrStateSpaceTooLarge, got %v", err)
	}
}

// Theorem 3.1 + Example 1, machine-checked on K_3: two stable labelings ⇒
// not label (n−1)-stabilizing; but label r-stabilizing for every r < n−1.
func TestTheorem31OnK3(t *testing.T) {
	p, err := protocols.Example1Clique(3)
	if err != nil {
		t.Fatal(err)
	}
	x := make(core.Input, 3)

	dec, err := LabelRStabilizing(p, x, 2, 1<<22) // r = n−1 = 2
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stabilizing {
		t.Error("Theorem 3.1: Example 1 on K_3 must not be label 2-stabilizing")
	}
	if dec.Witness == nil {
		t.Fatal("non-stabilizing verdict must carry a witness")
	}
	if dec.Witness.Labelings[0].Equal(dec.Witness.Labelings[1]) {
		t.Error("witness labelings must differ")
	}

	dec, err = LabelRStabilizing(p, x, 1, 1<<22) // r = 1 < n−1
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Stabilizing {
		t.Error("Example 1 (tightness): must be label 1-stabilizing on K_3")
	}
}

// The same on K_4: not 3-stabilizing, but 1- and 2-stabilizing.
func TestTheorem31OnK4(t *testing.T) {
	if testing.Short() {
		t.Skip("state space ~10^5; skip in -short")
	}
	p, err := protocols.Example1Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	x := make(core.Input, 4)
	for r := 1; r <= 3; r++ {
		dec, err := LabelRStabilizing(p, x, r, 1<<24)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		wantStable := r < 3
		if dec.Stabilizing != wantStable {
			t.Errorf("r=%d: stabilizing=%v, want %v", r, dec.Stabilizing, wantStable)
		}
	}
}

// A protocol with a unique stable labeling that converges under any fair
// schedule: all nodes emit 0 always.
func TestLabelRStabilizingConstant(t *testing.T) {
	g := graph.Clique(3)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(),
		func(_ []core.Label, _ core.Bit, out []core.Label) core.Bit {
			for i := range out {
				out[i] = 0
			}
			return 0
		})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		dec, err := LabelRStabilizing(p, make(core.Input, 3), r, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Stabilizing {
			t.Errorf("r=%d: constant protocol must stabilize", r)
		}
	}
}

// The NOT-ring never label-stabilizes (no fixed point on odd rings).
func TestLabelRStabilizingNotRing(t *testing.T) {
	g := graph.Ring(3)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = 1 - in[0]
			return core.Bit(out[0])
		})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := LabelRStabilizing(p, make(core.Input, 3), 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stabilizing {
		t.Error("NOT-ring must not label-stabilize")
	}
}

// Output stabilization can hold where label stabilization fails: NOT-ring
// with constant outputs.
func TestOutputVsLabelStabilization(t *testing.T) {
	g := graph.Ring(3)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = 1 - in[0]
			return 1 // constant output
		})
	if err != nil {
		t.Fatal(err)
	}
	x := make(core.Input, 3)
	labelDec, err := LabelRStabilizing(p, x, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if labelDec.Stabilizing {
		t.Error("labels must oscillate")
	}
	outDec, err := OutputRStabilizing(p, x, 2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if !outDec.Stabilizing {
		t.Error("outputs are constant, must output-stabilize")
	}
}

// Output oscillation is detected: output mirrors the flipping label.
func TestOutputRStabilizingOscillation(t *testing.T) {
	g := graph.Ring(3)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = 1 - in[0]
			return core.Bit(out[0])
		})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := OutputRStabilizing(p, make(core.Input, 3), 1, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stabilizing {
		t.Error("outputs must oscillate on the NOT-ring")
	}
	if dec.Witness == nil {
		t.Error("want output witness")
	}
}

func TestLabelRStabilizingValidation(t *testing.T) {
	p, _ := protocols.Example1Clique(3)
	if _, err := LabelRStabilizing(p, make(core.Input, 3), 0, 1000); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := OutputRStabilizing(p, make(core.Input, 3), 0, 1000); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := LabelRStabilizing(p, make(core.Input, 3), 2, 10); !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Error("tiny limit should trip ErrStateSpaceTooLarge")
	}
}

// TreeProtocol (Proposition 2.3) is label r-stabilizing for every r — it
// has a unique stable labeling per input. Check r = 1..3 on a 3-ring.
func TestTreeProtocolIsRStabilizing(t *testing.T) {
	if testing.Short() {
		t.Skip("16^3·r^3 states per r")
	}
	g := graph.Ring(3)
	p, err := protocols.TreeProtocol(g, func(x core.Input) core.Bit { return x[0] ^ x[1] ^ x[2] })
	if err != nil {
		t.Fatal(err)
	}
	x := core.Input{1, 0, 1}
	stable, err := StableLabelings(p, x, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stable) != 1 {
		t.Fatalf("tree protocol should have a unique stable labeling, got %d", len(stable))
	}
	for r := 1; r <= 2; r++ {
		dec, err := LabelRStabilizing(p, x, r, 1<<23)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if !dec.Stabilizing {
			t.Errorf("r=%d: tree protocol must label-stabilize", r)
		}
	}
}
