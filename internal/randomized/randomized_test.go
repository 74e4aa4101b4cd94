package randomized

import (
	"errors"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
)

func TestRandomizedBreaksSymmetry(t *testing.T) {
	// From the fully symmetric all-zero labeling, coin flips escape the
	// rotation-invariant subspace within a few rounds, for every seed —
	// the capability the deterministic variant provably lacks.
	for _, n := range []int{5, 7, 8, 11, 16} {
		for seed := uint64(0); seed < 10; seed++ {
			p, err := MISRing(n, seed, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(p, make(core.Input, n), core.UniformLabeling(p.Graph(), 0))
			if err != nil {
				t.Fatal(err)
			}
			all := make([]graph.NodeID, n)
			for i := range all {
				all[i] = graph.NodeID(i)
			}
			broken := -1
			for step := 1; step <= 30; step++ {
				r.Step(all)
				if !RotationallySymmetric(p.Graph(), r.Labels()) {
					broken = step
					break
				}
			}
			if broken == -1 {
				t.Errorf("n=%d seed=%d: symmetry not broken within 30 rounds", n, seed)
			}
		}
	}
}

func TestMISIsFixedPointWhenReached(t *testing.T) {
	// Absorption check at the label level: plant a genuine MIS with
	// consistent echo fields; the configuration must be an exact fixed
	// point of the (deterministic branches of the) dynamics.
	n := 7
	p, err := MISRing(n, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	cands := []graph.NodeID{0, 2, 4} // valid MIS on the 7-ring
	isC := make([]core.Bit, n)
	for _, v := range cands {
		isC[v] = 1
	}
	l := make(core.Labeling, g.M())
	for v := 0; v < n; v++ {
		ccw := (v - 1 + n) % n
		ccw2 := (v - 2 + n) % n
		lab := misLabel(isC[v], isC[ccw], isC[ccw2])
		for _, id := range g.Out(graph.NodeID(v)) {
			l[id] = lab
		}
	}
	r, err := NewRunner(p, make(core.Input, n), l)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]graph.NodeID, n)
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	for step := 0; step < 50; step++ {
		r.Step(all)
		if !r.Labels().Equal(l) {
			t.Fatalf("step %d: a planted MIS must be a fixed point", step)
		}
	}
	if !isMaximalIndependentSet(n, candidateSet(g, r.Labels())) {
		t.Fatal("planted configuration is not recognized as a MIS")
	}
}

func TestDeterministicVariantStaysSymmetricForever(t *testing.T) {
	// coinProb = 1 makes the reactions deterministic and rotation-
	// equivariant; from the symmetric all-zero labeling the configuration
	// is rotationally symmetric at every synchronous step, so it can never
	// be a MIS (which is never rotation-invariant on a ring with n ≥ 3
	// under full symmetry: all-candidates and no-candidates both fail).
	for _, n := range []int{5, 6, 9} {
		p, err := MISRing(n, 1, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(p, make(core.Input, n), core.UniformLabeling(p.Graph(), 0))
		if err != nil {
			t.Fatal(err)
		}
		all := make([]graph.NodeID, n)
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		for step := 0; step < 6*n; step++ {
			r.Step(all)
			if !RotationallySymmetric(p.Graph(), r.Labels()) {
				t.Fatalf("n=%d step %d: deterministic uniform protocol broke symmetry", n, step)
			}
			if isMaximalIndependentSet(n, candidateSet(p.Graph(), r.Labels())) {
				t.Fatalf("n=%d step %d: symmetric configuration cannot be a MIS", n, step)
			}
		}
	}
}

func TestRunnerReproducible(t *testing.T) {
	run := func() core.Labeling {
		p, err := MISRing(9, 1234, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(p, make(core.Input, 9), core.UniformLabeling(p.Graph(), 0))
		if err != nil {
			t.Fatal(err)
		}
		all := make([]graph.NodeID, 9)
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		for k := 0; k < 100; k++ {
			r.Step(all)
		}
		return r.Labels()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Error("same seed must replay identically")
	}
}

func TestIsMaximalIndependentSet(t *testing.T) {
	tests := []struct {
		n     int
		cands []graph.NodeID
		want  bool
	}{
		{5, []graph.NodeID{0, 2}, true},
		{5, []graph.NodeID{0, 1}, false}, // adjacent
		{5, []graph.NodeID{0}, false},    // node 2..3 uncovered? 2 is uncovered
		{6, []graph.NodeID{0, 2, 4}, true},
		{6, []graph.NodeID{0, 3}, true},
		{6, []graph.NodeID{}, false},
	}
	for _, tt := range tests {
		if got := isMaximalIndependentSet(tt.n, tt.cands); got != tt.want {
			t.Errorf("n=%d %v: got %v, want %v", tt.n, tt.cands, got, tt.want)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := MISRing(2, 1, 0.5); err == nil {
		t.Error("n<3 should fail")
	}
	if _, err := newUniform(nil, core.BinarySpace(), 1, nil); err == nil {
		t.Error("nil graph should fail")
	}
	g := graph.Ring(3)
	if _, err := New(g, core.BinarySpace(), 1, nil); err == nil {
		t.Error("missing reactions should fail")
	}
	p, err := MISRing(5, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(p, make(core.Input, 2), core.UniformLabeling(p.Graph(), 0)); err == nil {
		t.Error("input mismatch should fail")
	}
	if _, err := NewRunner(p, make(core.Input, 5), core.Labeling{1}); err == nil {
		t.Error("labeling mismatch should fail")
	}
}

// newUniform builds a protocol in which every node runs the same
// randomized reaction.
func newUniform(g *graph.Graph, space core.LabelSpace, seed uint64, r Reaction) (*Protocol, error) {
	if g == nil {
		return nil, errors.New("randomized: nil graph")
	}
	reactions := make([]Reaction, g.N())
	for i := range reactions {
		reactions[i] = r
	}
	return New(g, space, seed, reactions)
}

// candidateSet extracts the candidate nodes from a labeling of the MIS
// ring protocol.
func candidateSet(g *graph.Graph, l core.Labeling) []graph.NodeID {
	var out []graph.NodeID
	for v := 0; v < g.N(); v++ {
		c, _, _ := misUnpack(l[g.Out(graph.NodeID(v))[0]])
		if c == 1 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// isMaximalIndependentSet checks the MIS property of a candidate set on
// the ring: no two adjacent candidates, and every non-candidate has a
// candidate neighbor.
func isMaximalIndependentSet(n int, candidates []graph.NodeID) bool {
	isC := make([]bool, n)
	for _, v := range candidates {
		isC[v] = true
	}
	for v := 0; v < n; v++ {
		left := (v - 1 + n) % n
		right := (v + 1) % n
		if isC[v] && (isC[left] || isC[right]) {
			return false
		}
		if !isC[v] && !isC[left] && !isC[right] {
			return false
		}
	}
	return true
}
