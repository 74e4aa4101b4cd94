package verify_test

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/schedule"
	"stateless/internal/sim"
	"stateless/internal/verify"
)

// Cross-validation of the exhaustive verifier against the simulator on
// randomly tabulated protocols: if the verifier says "label r-stabilizing",
// then every simulated r-fair run must converge; if it says "not", then
// simulation must be able to oscillate from at least one initial labeling
// (which the verifier's own SCC analysis guarantees exists — here we
// confirm the positive direction exhaustively and the negative direction
// by the witness's existence).

// randomProtocol tabulates uniform-random reaction functions on g over a
// binary label space, seeded for reproducibility.
func randomProtocol(t *testing.T, g *graph.Graph, seed uint64) *core.Protocol {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	n := g.N()
	reactions := make([]core.Reaction, n)
	for v := 0; v < n; v++ {
		inDeg := g.InDegree(graph.NodeID(v))
		outDeg := g.OutDegree(graph.NodeID(v))
		rows := 1 << uint(inDeg+1)
		table := make([][]core.Label, rows)
		outputs := make([]core.Bit, rows)
		for r := range table {
			table[r] = make([]core.Label, outDeg)
			for o := range table[r] {
				table[r][o] = core.Label(rng.IntN(2))
			}
			outputs[r] = core.Bit(rng.IntN(2))
		}
		reactions[v] = func(in []core.Label, input core.Bit, out []core.Label) core.Bit {
			idx := int(input)
			for i, l := range in {
				idx |= int(l&1) << uint(i+1)
			}
			copy(out, table[idx])
			return outputs[idx]
		}
	}
	p, err := core.NewProtocol(g, core.BinarySpace(), reactions)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifierAgreesWithSimulation(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Ring(3),
		graph.BidirectionalRing(3),
		graph.Clique(3),
		graph.Path(3),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 12; seed++ {
			p := randomProtocol(t, g, seed+uint64(gi)*100)
			x := core.InputFromUint(seed, g.N())
			for r := 1; r <= 2; r++ {
				dec, err := verify.LabelRStabilizing(p, x, r, 1<<22)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Stabilizing {
					// Positive direction: every r-fair run we can produce
					// must converge. Synchronous + round robin (r-fair for
					// r ≥ n... round robin only when r ≥ n=3; use it only
					// for r=1 checks via synchronous) + random r-fair.
					res, err := sim.RunSynchronous(p, x, core.UniformLabeling(g, 0), 1<<12)
					if err != nil {
						t.Fatal(err)
					}
					if res.Status == sim.Oscillating {
						t.Fatalf("graph %d seed %d r=%d: verifier says stabilizing, synchronous run oscillates",
							gi, seed, r)
					}
					for trial := 0; trial < 5; trial++ {
						sched, err := schedule.NewRandomRFair(g.N(), r, 0.4, seed*10+uint64(trial))
						if err != nil {
							t.Fatal(err)
						}
						rng := rand.New(rand.NewPCG(seed, uint64(trial)))
						l0 := core.RandomLabeling(g, p.Space(), rng)
						rr, err := sim.Run(p, x, l0, sched, sim.Options{MaxSteps: 1 << 13})
						if err != nil {
							t.Fatal(err)
						}
						if rr.Status != sim.LabelStable && rr.Status != sim.Exhausted {
							t.Fatalf("graph %d seed %d r=%d: unexpected %v", gi, seed, r, rr.Status)
						}
						// Exhausted without stabilization would contradict
						// the verifier only if the run truly never
						// converges; with 8k steps on an 8-state labeling
						// space that cannot happen for stabilizing systems.
						if rr.Status == sim.Exhausted {
							t.Fatalf("graph %d seed %d r=%d: run exhausted although verifier says stabilizing",
								gi, seed, r)
						}
					}
				} else if dec.Witness == nil {
					t.Fatalf("graph %d seed %d r=%d: non-stabilizing verdict without witness", gi, seed, r)
				}
			}
		}
	}
}

func TestMonotoneInR(t *testing.T) {
	// r-fairness nests: every (r)-fair schedule is (r+1)-fair, so label
	// (r+1)-stabilizing implies label r-stabilizing. Verify the verifier
	// respects the monotonicity on random protocols.
	g := graph.Clique(3)
	for seed := uint64(0); seed < 15; seed++ {
		p := randomProtocol(t, g, seed)
		x := core.InputFromUint(seed, 3)
		prev := true
		for r := 1; r <= 3; r++ {
			dec, err := verify.LabelRStabilizing(p, x, r, 1<<23)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Stabilizing && !prev {
				t.Fatalf("seed %d: stabilizing at r=%d but not at r=%d — monotonicity violated",
					seed, r, r-1)
			}
			prev = dec.Stabilizing
		}
	}
}

func TestUniqueStableLabelingNecessary(t *testing.T) {
	// Theorem 3.1 contrapositive on random protocols: whenever the
	// verifier certifies label (n-1)-stabilization, there must be at most
	// one stable labeling reachable... the theorem says ≥2 stable
	// labelings ⇒ not (n-1)-stabilizing; so (n-1)-stabilizing ⇒ ≤1 stable
	// labeling.
	g := graph.Clique(3)
	for seed := uint64(100); seed < 130; seed++ {
		p := randomProtocol(t, g, seed)
		x := core.InputFromUint(seed, 3)
		dec, err := verify.LabelRStabilizing(p, x, 2, 1<<23) // r = n-1 = 2
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Stabilizing {
			continue
		}
		stable, err := verify.StableLabelings(p, x, 1<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(stable) > 1 {
			t.Fatalf("seed %d: (n-1)-stabilizing with %d stable labelings — contradicts Theorem 3.1",
				seed, len(stable))
		}
	}
}
