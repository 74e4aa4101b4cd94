package explore

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
)

// symmetricProtocol builds a trivial broadcast protocol (max of the
// in-multiset) on g — the reaction body is irrelevant to canonicalization,
// only the Symmetric() declaration matters.
func symmetricProtocol(t *testing.T, g *graph.Graph, q uint64) *core.Protocol {
	t.Helper()
	p, err := core.NewSymmetricProtocol(g, core.MustLabelSpace(q),
		func(in []core.Label, _ core.Bit) (core.Label, core.Bit) {
			var v core.Label
			for _, l := range in {
				if l > v {
					v = l
				}
			}
			return v, core.Bit(v & 1)
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSymmetrySubgroupHalfInvariant is the regression for the old
// all-or-nothing invariance bail: a half-invariant input used to disable
// the quotient entirely; now the invariant subgroup survives.
func TestSymmetrySubgroupHalfInvariant(t *testing.T) {
	// Uniform (order-preserving) case: Ring(4) with alternating input keeps
	// the rotation by 2.
	g := graph.Ring(4)
	uniform, err := core.NewUniformProtocol(g, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = in[0]; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	codec := enc.NewStateCodec(uniform.Space(), g.M(), g.N(), 2, false)
	sym := NewSymmetry(uniform, core.Input{1, 0, 1, 0}, codec)
	if sym == nil {
		t.Fatal("half-invariant input must keep the invariant subgroup, got nil")
	}
	if sym.Order() != 2 {
		t.Fatalf("invariant subgroup order = %d, want 2 (identity + rotation by 2)", sym.Order())
	}

	// Symmetric case: the even bidirectional ring with alternating input
	// keeps half the dihedral group (even rotations + parity-preserving
	// reflections).
	bg := graph.BidirectionalRing(6)
	bp := symmetricProtocol(t, bg, 2)
	bcodec := enc.NewStateCodec(bp.Space(), bg.M(), bg.N(), 2, false)
	bsym := NewSymmetry(bp, core.Input{1, 0, 1, 0, 1, 0}, bcodec)
	if bsym == nil || bsym.Order() != 6 {
		t.Fatalf("dihedral invariant subgroup order = %d, want 6", bsym.Order())
	}
}

// TestSymmetricProtocolFullGroup pins the group orders the quotient reaches
// once a protocol declares symmetric reactions.
func TestSymmetricProtocolFullGroup(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		order int
	}{
		{"bidir-ring6", graph.BidirectionalRing(6), 12},
		{"cube3", graph.Hypercube(3), 48},
		{"torus3x3", graph.Torus(3, 3), 9},
		{"clique4", graph.Clique(4), 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := symmetricProtocol(t, tc.g, 2)
			codec := enc.NewStateCodec(p.Space(), tc.g.M(), tc.g.N(), 1, false)
			sym := NewSymmetry(p, make(core.Input, tc.g.N()), codec)
			if sym.Order() != tc.order {
				t.Fatalf("quotient order = %d, want %d", sym.Order(), tc.order)
			}
			// The same protocol built as merely uniform only gets the
			// order-preserving group — strictly smaller on all of these
			// topologies (at most n elements, often just the identity).
			up, err := core.NewUniformProtocol(tc.g, p.Space(),
				func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
					for i := range out {
						out[i] = 0
					}
					return 0
				})
			if err != nil {
				t.Fatal(err)
			}
			if usym := NewSymmetry(up, make(core.Input, tc.g.N()), codec); usym.Order() >= tc.order {
				t.Fatalf("non-symmetric protocol got a quotient of order %d on %s", usym.Order(), tc.name)
			}
		})
	}
}

// refApply is the test-side reference action of an automorphism on an
// unpacked state, independent of the Canon scratch machinery.
func refApply(codec *enc.Codec, a graph.Automorphism, labels core.Labeling, cd []uint8, outs []core.Bit) []uint64 {
	pl := make(core.Labeling, len(labels))
	for e, l := range labels {
		pl[a.Edge[e]] = l
	}
	pcd := make([]uint8, len(cd))
	for v := range cd {
		pcd[a.Node[v]] = cd[v]
	}
	po := make([]core.Bit, len(outs))
	for v := range outs {
		po[a.Node[v]] = outs[v]
	}
	return codec.Pack(pl, pcd, po, nil)
}

// TestOrbitMinMatchesBruteForce cross-checks both minimizers — element
// scan and orbit BFS, over one- and two-word states — against minimization
// over the fully materialized group on random states. Rows are named
// topology/minimizer (tables: element scan, gen-bfs: orbit BFS), with a -2w
// suffix for two-word states; each row pins the minimizer and width
// NewSymmetry picks for it. The ring rows quotient a merely uniform
// protocol by its order-preserving rotations. Every row tracks outputs.
func TestOrbitMinMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		q       uint64
		r       int
		uniform bool // uniform, not symmetric: order-preserving group only
		scan    bool // element scan; otherwise orbit BFS
		words   int
	}{
		// One word, |Γ| ≤ 128: element scan.
		{"ring3/tables", graph.Ring(3), 3, 3, true, true, 1},
		{"ring5/tables", graph.Ring(5), 3, 3, true, true, 1},
		{"ring7/tables", graph.Ring(7), 3, 3, true, true, 1},
		{"bidir-ring5/tables", graph.BidirectionalRing(5), 2, 2, false, true, 1},
		{"cube3/tables", graph.Hypercube(3), 2, 2, false, true, 1},
		{"torus3x3/tables", graph.Torus(3, 3), 2, 1, false, true, 1},
		// One word, |Γ| = 720: orbit BFS.
		{"clique6/gen-bfs", graph.Clique(6), 2, 1, false, false, 1},
		// Two words, |Γ| = 9: element scan.
		{"torus3x3-q4/tables-2w", graph.Torus(3, 3), 4, 2, false, true, 2},
		// Two words, |Γ| = 384: orbit BFS.
		{"cube4/gen-bfs-2w", graph.Hypercube(4), 2, 1, false, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := symmetricProtocol(t, tc.g, tc.q)
			if tc.uniform {
				var err error
				p, err = core.NewUniformProtocol(tc.g, core.MustLabelSpace(tc.q),
					func(in []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = in[0]; return 0 })
				if err != nil {
					t.Fatal(err)
				}
			}
			n, m := tc.g.N(), tc.g.M()
			codec := enc.NewStateCodec(p.Space(), m, n, tc.r, true)
			sym := NewSymmetry(p, make(core.Input, n), codec)
			if sym == nil {
				t.Fatal("expected a non-trivial quotient")
			}
			if sym.scan != tc.scan || codec.Words() != tc.words {
				t.Fatalf("scan = %v over %d words, want %v over %d", sym.scan, codec.Words(), tc.scan, tc.words)
			}
			elems := sym.Group().Elements()
			if elems == nil {
				t.Fatal("test instance must be materializable for brute force")
			}
			if len(elems) != sym.Order() {
				t.Fatalf("order %d vs %d elements", sym.Order(), len(elems))
			}
			canon := sym.NewCanon()
			rng := rand.New(rand.NewPCG(11, uint64(n)))
			labels := make(core.Labeling, m)
			cd := make([]uint8, n)
			outs := make([]core.Bit, n)
			for trial := 0; trial < 200; trial++ {
				for e := range labels {
					labels[e] = core.Label(rng.Uint64N(tc.q))
				}
				for v := range cd {
					cd[v] = uint8(rng.IntN(tc.r + 1))
					outs[v] = core.Bit(rng.IntN(2))
				}
				key := codec.Pack(labels, cd, outs, nil)
				got := append([]uint64(nil), key...)
				canon.Canonicalize(got)
				best := append([]uint64(nil), key...)
				for _, a := range elems {
					if img := refApply(codec, a, labels, cd, outs); wordsLess(img, best) {
						best = img
					}
				}
				for w := range got {
					if got[w] != best[w] {
						t.Fatalf("trial %d: canonical %x, brute-force minimum %x", trial, got, best)
					}
				}
				// Idempotence and orbit consistency: the canonical form of
				// any orbit member is the same.
				a := elems[rng.IntN(len(elems))]
				member := refApply(codec, a, labels, cd, outs)
				canon.Canonicalize(member)
				for w := range member {
					if member[w] != best[w] {
						t.Fatalf("trial %d: orbit member canonicalizes to %x, want %x", trial, member, best)
					}
				}
			}
		})
	}
}

// FuzzOrbitMinDihedral generalizes the PR 2 rotation fuzz to the dihedral
// group: arbitrary packed bytes on the bidirectional 5-ring must
// canonicalize to the minimum over all 10 dihedral elements.
func FuzzOrbitMinDihedral(f *testing.F) {
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(0x2ad), uint8(0x31))
	f.Add(uint16(0xffff), uint8(0xff))
	f.Fuzz(func(t *testing.T, rawLabels uint16, rawCd uint8) {
		const n, r = 5, 2
		g := graph.BidirectionalRing(n)
		p, err := core.NewSymmetricProtocol(g, core.BinarySpace(),
			func(in []core.Label, _ core.Bit) (core.Label, core.Bit) { return 0, 0 })
		if err != nil {
			t.Fatal(err)
		}
		m := g.M()
		codec := enc.NewStateCodec(p.Space(), m, n, r, false)
		sym := NewSymmetry(p, make(core.Input, n), codec)
		if sym.Order() != 2*n {
			t.Fatalf("dihedral order = %d, want %d", sym.Order(), 2*n)
		}
		labels := make(core.Labeling, m)
		cd := make([]uint8, n)
		for e := range labels {
			labels[e] = core.Label(rawLabels >> (e % 16) & 1)
		}
		for v := range cd {
			cd[v] = 1 + rawCd>>v&1
		}
		key := codec.Pack(labels, cd, nil, nil)
		got := append([]uint64(nil), key...)
		sym.NewCanon().Canonicalize(got)
		best := append([]uint64(nil), key...)
		for _, a := range sym.Group().Elements() {
			if img := refApply(codec, a, labels, cd, nil); wordsLess(img, best) {
				best = img
			}
		}
		if got[0] != best[0] {
			t.Fatalf("canonical %x, dihedral brute-force minimum %x", got, best)
		}
	})
}

// FuzzOrbitMinMultiWord is the two-word counterpart of the one-word
// canonicalization fuzzers: arbitrary states of a |Σ| = 4 protocol on
// Torus(3,3) (72 label bits plus countdowns, two packed words) must
// canonicalize to the minimum over all 9 translations.
func FuzzOrbitMinMultiWord(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(0))
	f.Add(uint64(0x0123456789abcdef), uint64(0xfe), uint16(0x1a5))
	f.Add(^uint64(0), ^uint64(0), ^uint16(0))
	const q, r = 4, 2
	g := graph.Torus(3, 3)
	p, err := core.NewSymmetricProtocol(g, core.MustLabelSpace(q),
		func(in []core.Label, _ core.Bit) (core.Label, core.Bit) { return 0, 0 })
	if err != nil {
		f.Fatal(err)
	}
	n, m := g.N(), g.M()
	codec := enc.NewStateCodec(p.Space(), m, n, r, false)
	// The Symmetry is immutable, so one serves every input.
	sym := NewSymmetry(p, make(core.Input, n), codec)
	if sym.Order() != 9 || codec.Words() != 2 {
		f.Fatalf("|Γ| = %d over %d words, want 9 over 2", sym.Order(), codec.Words())
	}
	f.Fuzz(func(t *testing.T, rawA, rawB uint64, rawCd uint16) {
		labels := make(core.Labeling, m)
		for e := range labels {
			raw := rawA
			if e >= 32 {
				raw = rawB
			}
			labels[e] = core.Label(raw >> (2 * uint(e%32)) & 3)
		}
		cd := make([]uint8, n)
		for v := range cd {
			cd[v] = 1 + uint8(rawCd>>v&1)
		}
		key := codec.Pack(labels, cd, nil, nil)
		got := append([]uint64(nil), key...)
		sym.NewCanon().Canonicalize(got)
		best := append([]uint64(nil), key...)
		for _, a := range sym.Group().Elements() {
			if img := refApply(codec, a, labels, cd, nil); wordsLess(img, best) {
				best = img
			}
		}
		if got[0] != best[0] || got[1] != best[1] {
			t.Fatalf("canonical %x, translation brute-force minimum %x", got, best)
		}
	})
}
