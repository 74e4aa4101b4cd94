package experiments

import (
	"slices"

	"stateless/internal/almoststateless"
	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/randomized"
	"stateless/internal/sim"
	"stateless/internal/stateful"
)

// E13AlmostStateless reproduces the §7(2) exploration: one memory bit
// separates almost-stateless from stateless at n = 1, and the
// fold-into-stateful + metanode chain compiles the memory away at the
// cost of 3× nodes and |Σ|·2^k labels, preserving the verdict.
func E13AlmostStateless() (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "§7(2) almost-stateless: memory separation and its compilation cost",
		Header: []string{"system", "mem bits", "nodes", "label values", "oscillates"},
	}
	// Separation at n=1: the 1-bit toggle clock vs any stateless node.
	clock, err := almoststateless.ToggleClock(1)
	if err != nil {
		return t, err
	}
	folded, err := clock.ToStateful()
	if err != nil {
		return t, err
	}
	lifted, err := clock.LiftConfig(almoststateless.Config{
		Labels: []core.Label{0}, Mems: []core.Label{0},
	})
	if err != nil {
		return t, err
	}
	cres, err := folded.RunSynchronous(lifted, 1000)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"toggle clock (almost-stateless)", itoa(clock.MemoryBits()), "1", "2", btoa(!cres.Stable),
	})

	g1 := graph.MustNew(1, nil)
	p1, err := core.NewUniformProtocol(g1, core.BinarySpace(),
		func(_ []core.Label, input core.Bit, _ []core.Label) core.Bit { return input })
	if err != nil {
		return t, err
	}
	sres, err := sim.RunSynchronous(p1, core.Input{1}, core.Labeling{}, 100)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"isolated node (stateless)", "0", "1", "2", btoa(sres.Status != sim.LabelStable),
	})

	// Compilation chain on the 2-node clock.
	clock2, err := almoststateless.ToggleClock(2)
	if err != nil {
		return t, err
	}
	pure, err := clock2.ToStateless()
	if err != nil {
		return t, err
	}
	lifted, err = clock2.LiftConfig(almoststateless.Config{
		Labels: []core.Label{0, 0}, Mems: []core.Label{0, 1},
	})
	if err != nil {
		return t, err
	}
	start := stateful.MetanodeStart(pure, lifted)
	mres, err := sim.RunSynchronous(pure, make(core.Input, pure.Graph().N()), start, 50000)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"clock → stateful → metanode", "0", itoa(pure.Graph().N()),
		utoa(pure.Space().Size()), btoa(mres.Status != sim.LabelStable),
	})
	return t, nil
}

// E14RandomizedSymmetryBreaking reproduces the §7(4) exploration on the
// oriented anonymous ring: deterministic orientation-uniform reactions
// stay rotationally symmetric forever; coin flips escape within a few
// rounds (median over seeds reported).
func E14RandomizedSymmetryBreaking() (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "§7(4) randomized reactions: symmetry breaking on anonymous rings",
		Header: []string{"n", "deterministic symmetric forever", "randomized broke symmetry (seeds)", "median rounds"},
	}
	for _, n := range []int{5, 9, 16} {
		// Deterministic: symmetric across a long horizon.
		det, err := randomized.MISRing(n, 1, 1.0)
		if err != nil {
			return t, err
		}
		dr, err := randomized.NewRunner(det, make(core.Input, n), core.UniformLabeling(det.Graph(), 0))
		if err != nil {
			return t, err
		}
		all := make([]graph.NodeID, n)
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		symmetric := true
		for step := 0; step < 10*n; step++ {
			dr.Step(all)
			if !randomized.RotationallySymmetric(det.Graph(), dr.Labels()) {
				symmetric = false
				break
			}
		}

		broke := 0
		var rounds []int
		for seed := uint64(0); seed < 9; seed++ {
			p, err := randomized.MISRing(n, seed, 0.5)
			if err != nil {
				return t, err
			}
			r, err := randomized.NewRunner(p, make(core.Input, n), core.UniformLabeling(p.Graph(), 0))
			if err != nil {
				return t, err
			}
			for step := 1; step <= 60; step++ {
				r.Step(all)
				if !randomized.RotationallySymmetric(p.Graph(), r.Labels()) {
					broke++
					rounds = append(rounds, step)
					break
				}
			}
		}
		median := 0
		if len(rounds) > 0 {
			slices.Sort(rounds)
			median = rounds[len(rounds)/2]
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), btoa(symmetric), itoa(broke) + "/9", itoa(median),
		})
	}
	return t, nil
}
