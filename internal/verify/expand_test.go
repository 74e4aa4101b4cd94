package verify

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/protocols"
)

// TestExpandMatchesStep pins the subset-DP expander to the model on one-,
// two- and three-word layouts: for random states, successor i of Expand
// must be core.Step under the i-th admissible activation set (the forced
// nodes plus the i-th free-node subset in ascending bitmask order) packed
// with Codec.Pack, with the countdowns of active nodes reset to r and the
// rest decremented; and its changed flag must report whether the compared
// section (labels, or outputs) differs between the state and that
// successor. The layouts include countdown and label fields that straddle
// a word boundary, and states both with and without forced nodes.
func TestExpandMatchesStep(t *testing.T) {
	ring := func(n int, sigma uint64) *core.Protocol {
		p, err := protocols.SaturatingRing(n, sigma)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	torus, err := protocols.SaturatingNet(graph.Torus(3, 3), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		p       *core.Protocol
		r       int
		outputs bool
		words   int
	}{
		{"ring6-r3", ring(6, 3), 3, false, 1},
		{"ring7-r3", ring(7, 3), 3, false, 1},
		{"ring21-r4", ring(21, 3), 4, false, 2}, // countdown 7 at bits 63–65
		{"ring21-r4-out", ring(21, 3), 4, true, 2},
		{"ring30-r7", ring(30, 3), 7, false, 3},
		{"torus3x3-out", torus, 2, true, 2},
		{"ring6-wide-out", ring(6, 1<<12), 3, true, 2}, // label 5 at bits 60–71
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, r := tc.p, tc.r
			g := p.Graph()
			n := g.N()
			x := make(core.Input, n)
			e, err := newExplorer(p, x, r, tc.outputs, Options{Symmetry: SymmetryOff, Store: StoreHash}, DefaultLimit)
			if err != nil {
				t.Fatal(err)
			}
			c := e.codec
			if c.Words() != tc.words {
				t.Fatalf("layout is %d words (%d bits), want %d", c.Words(), c.Bits(), tc.words)
			}
			ex := e.newExpander()
			b := explore.NewBatch(c.Words())
			rng := rand.New(rand.NewPCG(uint64(n), uint64(r)))
			cur := core.NewConfig(g, make(core.Labeling, g.M()))
			next := cur.Clone()
			cd := make([]uint8, n)
			nextCd := make([]uint8, n)
			var state, want []uint64
			for trial := 0; trial < 40; trial++ {
				for i := range cur.Labels {
					cur.Labels[i] = core.Label(rng.Uint64N(p.Space().Size()))
				}
				for v := range cur.Outputs {
					cur.Outputs[v] = 0
					if tc.outputs {
						cur.Outputs[v] = core.Bit(rng.IntN(2))
					}
				}
				// At most 6 free nodes (countdown in [2, r]); every other
				// node is forced (countdown 1). Small graphs alternate
				// between some forced nodes and none.
				nFree := rng.IntN(min(n, 6) + 1)
				if n <= 6 && trial%2 == 0 {
					nFree = n
				}
				for v := range cd {
					cd[v] = 1
				}
				for _, v := range rng.Perm(n)[:nFree] {
					cd[v] = uint8(2 + rng.IntN(r-1))
				}
				state = c.Pack(cur.Labels, cd, cur.Outputs, state)

				if err := ex.Expand(0, state, b); err != nil {
					t.Fatal(err)
				}
				var forced []graph.NodeID
				var free []int
				for v, k := range cd {
					if k == 1 {
						forced = append(forced, graph.NodeID(v))
					} else {
						free = append(free, v)
					}
				}
				first := 0
				if len(forced) == 0 {
					first = 1
				}
				if got, wantN := b.Len(), 1<<len(free)-first; got != wantN {
					t.Fatalf("trial %d: %d successors, want %d", trial, got, wantN)
				}
				for sub := first; sub < 1<<len(free); sub++ {
					active := append([]graph.NodeID(nil), forced...)
					for bi, v := range free {
						if sub&(1<<bi) != 0 {
							active = append(active, graph.NodeID(v))
						}
					}
					core.Step(p, x, cur, &next, active)
					for v := range nextCd {
						nextCd[v] = cd[v] - 1
					}
					for _, v := range active {
						nextCd[v] = uint8(r)
					}
					want = c.Pack(next.Labels, nextCd, next.Outputs, want)
					i := sub - first
					if got := b.Key(i); !wordsEqual(got, want) {
						t.Fatalf("trial %d set %v: successor %d = %x, want %x", trial, active, i, got, want)
					}
					wantChanged := !next.Labels.Equal(cur.Labels)
					if tc.outputs {
						wantChanged = false
						for v, o := range next.Outputs {
							wantChanged = wantChanged || o != cur.Outputs[v]
						}
					}
					if got := ex.changed[i]; got != wantChanged {
						t.Fatalf("trial %d set %v: changed = %v, want %v", trial, active, got, wantChanged)
					}
				}
			}
		})
	}
}
