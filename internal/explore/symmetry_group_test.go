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
// scan and orbit BFS, over one- and two-word states — and both element-scan
// kernels — chunk and byte tables — against minimization over the fully
// materialized group on random states. Rows are named topology/minimizer
// (tables: element scan, gen-bfs: orbit BFS, chunk: element scan over
// chunk tables), with a -2w suffix for two-word states; each row pins the
// minimizer, width, key bits and chunk width NewSymmetry picks for it. The
// ring rows quotient a merely uniform protocol by its order-preserving
// rotations. Every row but saturating-ring10 tracks outputs.
func TestOrbitMinMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		q       uint64
		r       int
		outputs bool
		uniform bool // uniform, not symmetric: order-preserving group only
		scan    bool // element scan; otherwise orbit BFS
		words   int
		bits    int  // codec.Bits()
		chunk   uint // chunk width of the chunk tables; 0: byte tables
	}{
		// One word of at most 44 bits, element tables within 2 MiB:
		// element scan over chunk tables of ⌈bits/4⌉ bits. ring3, ring5
		// and ring7 leave their last chunk partly empty.
		{"ring3/tables", graph.Ring(3), 3, 3, true, true, true, 1, 15, 4},
		{"ring5/tables", graph.Ring(5), 3, 3, true, true, true, 1, 25, 7},
		{"ring7/tables", graph.Ring(7), 3, 3, true, true, true, 1, 35, 9},
		{"bidir-ring5/tables", graph.BidirectionalRing(5), 2, 2, true, false, true, 1, 25, 7},
		// At most 8 bits: four 2-bit chunks.
		{"ring2/chunk-8b", graph.Ring(2), 3, 1, true, true, true, 1, 8, 2},
		// perfbench verify-bitstate's key: the uniform ring protocol on
		// Ring(10) with |Σ| = 3 and r = 2, without outputs, packs the same
		// 40 bits as SaturatingRing(10,3) and gets the same 10 rotations.
		{"saturating-ring10/chunk", graph.Ring(10), 3, 2, false, true, true, 1, 40, 10},
		// Just below and at the threshold: 11-bit chunks.
		{"ring14/chunk-42b", graph.Ring(14), 2, 1, true, true, true, 1, 42, 11},
		{"ring11/chunk-44b", graph.Ring(11), 3, 1, true, true, true, 1, 44, 11},
		// One word past 44 bits: element scan over byte tables.
		{"ring9/tables-45b", graph.Ring(9), 3, 2, true, true, true, 1, 45, 0},
		{"cube3/tables", graph.Hypercube(3), 2, 2, true, false, true, 1, 48, 0},
		{"torus3x3/tables", graph.Torus(3, 3), 2, 1, true, false, true, 1, 54, 0},
		// 40 bits, but 119 elements' chunk tables (3.7 MiB) exceed 2 MiB
		// while their byte tables fit: element scan over byte tables.
		{"clique5/tables-40b", graph.Clique(5), 2, 4, true, false, true, 1, 40, 0},
		// One word, |Γ| = 720: orbit BFS.
		{"clique6/gen-bfs", graph.Clique(6), 2, 1, true, false, false, 1, 42, 0},
		// Two words, |Γ| = 9: element scan.
		{"torus3x3-q4/tables-2w", graph.Torus(3, 3), 4, 2, true, false, true, 2, 99, 0},
		// Two words, |Γ| = 384: orbit BFS.
		{"cube4/gen-bfs-2w", graph.Hypercube(4), 2, 1, true, false, false, 2, 96, 0},
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
			codec := enc.NewStateCodec(p.Space(), m, n, tc.r, tc.outputs)
			sym := NewSymmetry(p, make(core.Input, n), codec)
			if sym == nil {
				t.Fatal("expected a non-trivial quotient")
			}
			if sym.scan != tc.scan || codec.Words() != tc.words || codec.Bits() != tc.bits {
				t.Fatalf("scan = %v over %d words of %d bits, want %v over %d of %d",
					sym.scan, codec.Words(), codec.Bits(), tc.scan, tc.words, tc.bits)
			}
			if sym.chunkBits != tc.chunk || (sym.chunks != nil) != (tc.chunk > 0) || (sym.tables != nil) != (tc.chunk == 0) {
				t.Fatalf("chunk width %d (chunk tables %v, byte tables %v), want %d",
					sym.chunkBits, sym.chunks != nil, sym.tables != nil, tc.chunk)
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
					if tc.outputs {
						outs[v] = core.Bit(rng.IntN(2))
					}
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

// FuzzCanonicalizeRing10 fuzzes the chunk-table element scan on perfbench
// verify-bitstate's key shape: arbitrary states of a |Σ| = 3 uniform
// protocol on Ring(10) at r = 2 without outputs (40 bits, four 10-bit
// chunks) must canonicalize to the minimum over all ten rotations, each
// packed by Codec.Pack from the rotated labels and countdowns.
func FuzzCanonicalizeRing10(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(0x2ad31), uint32(0x9a5e7))
	f.Add(^uint32(0), ^uint32(0))
	const n, q, r = 10, 3, 2
	g := graph.Ring(n)
	p, err := core.NewUniformProtocol(g, core.MustLabelSpace(q),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = in[0]; return 0 })
	if err != nil {
		f.Fatal(err)
	}
	codec := enc.NewStateCodec(p.Space(), n, n, r, false)
	sym := NewSymmetry(p, make(core.Input, n), codec)
	if sym.Order() != n || codec.Bits() != 40 || sym.chunkBits != 10 {
		f.Fatalf("|Γ| = %d over %d bits, chunk width %d; want %d over 40, 10",
			sym.Order(), codec.Bits(), sym.chunkBits, n)
	}
	f.Fuzz(func(t *testing.T, rawLabels, rawCd uint32) {
		labels := make(core.Labeling, n)
		cd := make([]uint8, n)
		for i := 0; i < n; i++ {
			labels[i] = core.Label(rawLabels >> (2 * i) & 3 % q)
			cd[i] = uint8(rawCd >> (2 * i) & 3 % (r + 1))
		}
		key := codec.Pack(labels, cd, nil, nil)
		got := append([]uint64(nil), key...)
		sym.NewCanon().Canonicalize(got)
		rl := make(core.Labeling, n)
		rcd := make([]uint8, n)
		best := append([]uint64(nil), key...)
		for s := 1; s < n; s++ {
			for i := 0; i < n; i++ {
				rl[(i+s)%n] = labels[i]
				rcd[(i+s)%n] = cd[i]
			}
			if cand := codec.Pack(rl, rcd, nil, nil); wordsLess(cand, best) {
				copy(best, cand)
			}
		}
		if got[0] != best[0] {
			t.Fatalf("canonical %x, brute-force rotation minimum %x", got, best)
		}
	})
}
