package core_test

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
)

// randomTabulated builds a protocol with independently tabulated random
// reactions on g (binary labels), exercising multi-degree nodes.
func randomTabulated(t *testing.T, g *graph.Graph, seed uint64) *core.Protocol {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xbadc))
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

// TestReactionsMatchesStep pins Reactions to Step: for random
// configurations and random activation sets, the successor Step produces
// must equal the pre-step configuration with every active node's out-edge
// labels and output replaced by its eagerly computed reaction — the
// identity the verifier's bit-patching expansion rests on.
func TestReactionsMatchesStep(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Ring(5),
		graph.BidirectionalRing(4),
		graph.Clique(4),
		graph.Path(4),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 6; seed++ {
			p := randomTabulated(t, g, seed+uint64(gi)*31)
			rng := rand.New(rand.NewPCG(seed, uint64(gi)))
			x := core.InputFromUint(rng.Uint64(), g.N())
			stepper := core.NewStepper(p)
			labels := make([]core.Label, g.M())
			outs := make([]core.Bit, g.N())
			for trial := 0; trial < 20; trial++ {
				cur := core.NewConfig(g, core.RandomLabeling(g, p.Space(), rng))
				for v := range cur.Outputs {
					cur.Outputs[v] = core.Bit(rng.IntN(2))
				}
				stepper.Reactions(x, cur, labels, outs)
				got := cur.Clone()
				var set []graph.NodeID
				for v := 0; v < g.N(); v++ {
					if rng.IntN(2) == 1 {
						set = append(set, graph.NodeID(v))
					}
				}
				want := cur.Clone()
				core.Step(p, x, cur, &want, set)
				for _, v := range set {
					for _, id := range g.Out(v) {
						got.Labels[id] = labels[id]
					}
					got.Outputs[v] = outs[v]
				}
				if !got.Labels.Equal(want.Labels) {
					t.Fatalf("graph %d seed %d trial %d set %v: labels %v, want %v",
						gi, seed, trial, set, got.Labels, want.Labels)
				}
				for v, b := range got.Outputs {
					if b != want.Outputs[v] {
						t.Fatalf("graph %d seed %d trial %d set %v: output[%d] = %d, want %d",
							gi, seed, trial, set, v, b, want.Outputs[v])
					}
				}
			}
		}
	}
}
