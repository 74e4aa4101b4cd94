package explore

import (
	"math/bits"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
)

// Symmetry is an immutable symmetry-quotient context: an automorphism group
// of the protocol graph (graph.Group) lifted to permutations of packed
// states. Quotienting replaces every explored state by the lexicographically
// minimal packed state in its orbit, shrinking the visited set by up to the
// group order while preserving verdicts exactly — see internal/verify for
// the quotient-correct violation criterion.
//
// Which group is sound depends on what the protocol declares:
//
//   - core.Protocol.Symmetric protocols (order-blind broadcast reactions)
//     commute with EVERY automorphism, so the full detected group
//     (graph.SymmetryGroup: dihedral on bidirectional rings, signed
//     permutations on hypercubes, translations on tori, S_n on cliques)
//     applies.
//   - merely node-uniform protocols commute only with the order-preserving
//     automorphisms (graph.OrderPreservingGroup), which see in/out labels
//     in canonical incidence order position by position.
//
// In both cases the input vector must be fixed by the group; instead of
// bailing out when it is not, NewSymmetry quotients by the largest
// input-invariant subgroup (invariance is closed under composition and
// inverse, so the surviving elements form a genuine group and "minimal over
// the subgroup" is a consistent canonical form).
//
// Canonicalization is one applier and two minimizers:
//
//   - the applier: every automorphism compiles to byte tables over the
//     packed words. A w-word state gets w² tables of [8][256]uint64, table
//     (i, o) mapping input word i to its contribution to output word o, so
//     one application is 8·w² lookups ORed together;
//   - element scan: a materialized group whose byte tables fit scanBudget
//     minimizes over the images under its |Γ|−1 non-identity elements.
//     One-word states of at most chunkMaxBits bits skip the byte applier:
//     the key splits once into four chunks of ⌈bits/4⌉ bits, and each
//     element's image is 4 lookups ORed together in chunk tables (see
//     Symmetry.chunks), when those fit scanBudget too;
//   - orbit BFS: any other group keeps tables for its generators only and
//     visits each orbit element once, from the state through generator
//     images. The orbit is at most |Γ| states, and the group is never
//     materialized.
//
// The choice follows from the group and the state width alone; both
// minimizers return the unique orbit minimum.
type Symmetry struct {
	codec *enc.Codec
	group *graph.Group

	// scan selects the element scan; otherwise the orbit BFS runs.
	scan bool
	// tables holds w² byte tables per automorphism: those of every
	// non-identity element (scan) or of every non-identity generator
	// (BFS). tables[(a·w+i)·w+o][b][v] is the contribution of byte b of
	// input word i, holding value v, to output word o of automorphism a's
	// image. Nil when chunks serve the element scan.
	tables [][8][256]uint64
	// chunks holds the one-word element scan's chunk tables, or nil.
	// With e non-identity elements and chunk width cw = chunkBits, the
	// image of chunk c (key bits [c·cw, (c+1)·cw)) holding value x under
	// element a is chunks[(c<<cw|x)·e+a]: the e images of one chunk value
	// sit side by side, so a key reads four runs of e words.
	chunks    []uint64
	chunkBits uint
}

// scanBudget caps the element scan's tables at 2 MiB: 128 one-word
// elements' 16 KiB byte tables. Past it the orbit BFS runs instead. The
// chunk tables must fit it too; where they do not, the byte tables serve.
const scanBudget = 2 << 20

// chunkMaxBits is the widest one-word key the chunk tables serve: four
// chunks of 11 bits, 64 KiB of tables per element.
const chunkMaxBits = 44

// NewSymmetry builds the quotient context for (p, x) states packed by
// codec, or returns nil when quotienting is unsound or trivial (invariant
// subgroup of order 1). codec must lay out p.Graph().M() labels and either
// zero or p.Graph().N() countdown fields.
func NewSymmetry(p *core.Protocol, x core.Input, codec *enc.Codec) *Symmetry {
	if !p.Uniform() {
		return nil
	}
	var base *graph.Group
	if p.Symmetric() {
		base = p.Graph().SymmetryGroup()
	} else {
		base = p.Graph().OrderPreservingGroup()
	}
	sub := base.Subgroup(func(a graph.Automorphism) bool {
		for v, img := range a.Node {
			if x[v] != x[img] {
				return false
			}
		}
		return true
	})
	if sub.Order() <= 1 {
		return nil
	}
	s := &Symmetry{codec: codec, group: sub}
	w := codec.Words()
	auts := sub.Generators() // non-identity by construction
	if elems := sub.Elements(); elems != nil && len(elems)*w*w*byteTableBytes <= scanBudget {
		s.scan, auts = true, nil
		for _, a := range elems {
			if !a.IsIdentity() {
				auts = append(auts, a)
			}
		}
		if b := codec.Bits(); w == 1 && b <= chunkMaxBits {
			cw := uint(b+3) / 4
			if len(auts)*(4<<cw)*8 <= scanBudget {
				s.chunks, s.chunkBits = chunkTables(codec, auts, cw), cw
				return s
			}
		}
	}
	s.tables = buildTables(codec, auts)
	return s
}

// byteTableBytes is the size of one [8][256]uint64 byte table.
const byteTableBytes = 8 * 256 * 8

// moveBits calls move(from, to) for every state bit: automorphism a
// carries bit from of a packed state to bit to of its image. Label field e
// lands at Edge[e], countdown and output fields v land at Node[v].
func moveBits(c *enc.Codec, a *graph.Automorphism, move func(from, to int)) {
	field := func(src, dst, width int) {
		for j := 0; j < width; j++ {
			move(src+j, dst+j)
		}
	}
	for e := 0; e < c.M(); e++ {
		field(c.LabelOffset(e), c.LabelOffset(int(a.Edge[e])), c.LabelFieldBits())
	}
	for v := 0; v < c.N(); v++ {
		field(c.CountdownOffset(v), c.CountdownOffset(int(a.Node[v])), c.CountdownFieldBits())
		if c.HasOutputs() {
			field(c.OutputOffset(v), c.OutputOffset(int(a.Node[v])), 1)
		}
	}
}

// buildTables compiles each automorphism to its w² byte tables.
func buildTables(c *enc.Codec, auts []graph.Automorphism) [][8][256]uint64 {
	w := c.Words()
	tables := make([][8][256]uint64, len(auts)*w*w)
	for ai := range auts {
		moveBits(c, &auts[ai], func(from, to int) {
			tab := &tables[(ai*w+from>>6)*w+to>>6]
			for v := 0; v < 256; v++ {
				if v>>(from&7)&1 != 0 {
					tab[from>>3&7][v] |= 1 << uint(to&63)
				}
			}
		})
	}
	return tables
}

// chunkTables compiles one-word automorphisms to the element scan's chunk
// tables of width cw, laid out as Symmetry.chunks describes. An entry is
// the entry of its chunk value with the lowest set bit cleared, ORed with
// that bit's image, so each run of e images costs e ORs.
func chunkTables(c *enc.Codec, auts []graph.Automorphism, cw uint) []uint64 {
	e := len(auts)
	// bitImg[j·e+a] is the image of key bit j under element a.
	bitImg := make([]uint64, 4*int(cw)*e)
	for a := range auts {
		moveBits(c, &auts[a], func(from, to int) { bitImg[from*e+a] = 1 << uint(to) })
	}
	chunks := make([]uint64, 4<<cw*e)
	for ch := 0; ch < 4; ch++ {
		for x := 1; x < 1<<cw; x++ {
			row := chunks[(ch<<cw|x)*e:][:e]
			prev := chunks[(ch<<cw|x&(x-1))*e:][:e]
			img := bitImg[(ch*int(cw)+bits.TrailingZeros(uint(x)))*e:][:e]
			for a := range row {
				row[a] = prev[a] | img[a]
			}
		}
	}
	return chunks
}

// Order returns the order of the quotient group (≥ 2 for non-nil Symmetry).
func (s *Symmetry) Order() int {
	if s == nil {
		return 1
	}
	return s.group.Order()
}

// Group returns the input-invariant automorphism group being quotiented by,
// or nil for a nil Symmetry.
func (s *Symmetry) Group() *graph.Group {
	if s == nil {
		return nil
	}
	return s.group
}

// applyTable runs one byte table over one packed word.
func applyTable(t *[8][256]uint64, k uint64) uint64 {
	return t[0][uint8(k)] | t[1][uint8(k>>8)] | t[2][uint8(k>>16)] | t[3][uint8(k>>24)] |
		t[4][uint8(k>>32)] | t[5][uint8(k>>40)] | t[6][uint8(k>>48)] | t[7][k>>56]
}

// apply writes the image of state src under automorphism a (an index into
// the table set) to dst. One-word states skip the word loops: the one-word
// orbit BFS calls apply once per orbit element and generator.
func (s *Symmetry) apply(a int, src, dst []uint64) {
	w := len(src)
	if w == 1 {
		dst[0] = applyTable(&s.tables[a], src[0])
		return
	}
	tabs := s.tables[a*w*w : (a+1)*w*w]
	clear(dst)
	for i, k := range src {
		for o := range dst {
			dst[o] |= applyTable(&tabs[i*w+o], k)
		}
	}
}

// Canon is one worker's canonicalization scratch over a shared Symmetry.
// Not safe for concurrent use; create one per worker via NewCanon.
type Canon struct {
	s         *Symmetry
	img, best []uint64 // an image; the element scan's running minimum
	// seen is the BFS visited set, reset per state. IDs follow discovery
	// order, so its arena doubles as the queue.
	seen *enc.Table
}

// NewCanon returns a fresh canonicalization scratch.
func (s *Symmetry) NewCanon() *Canon {
	w := s.codec.Words()
	c := &Canon{s: s, img: make([]uint64, w), best: make([]uint64, w)}
	if !s.scan {
		// Sized for a whole orbit (at most |Γ| states, up to the
		// materialization limit) at quarter load, so probe chains stay
		// short.
		c.seen = enc.NewTable(w, 2*min(s.Order(), graph.MaterializeLimit))
	}
	return c
}

// Canonicalize rewrites key in place to the minimal packed state of its
// orbit (minimal as an unsigned integer in the packed-word encoding, most
// significant word first) and returns it. The orbit of (ℓ, x⃗, y⃗) under an
// automorphism π is (ℓ∘π⁻¹ on edges, countdowns and outputs permuted by π
// on nodes). The element scan enumerates every element; the orbit BFS
// follows the generators, which is sound because every element of a finite
// group is a positive word in the generators, so the BFS covers the whole
// orbit.
func (c *Canon) Canonicalize(key []uint64) []uint64 {
	c.CanonicalizeBatch(key, 1)
	return key
}

// CanonicalizeBatch rewrites count keys, packed back to back in block, to
// their orbit minima — the batch counterpart of Canonicalize. One-word
// element scans run the whole block through one flat loop over the chunk
// or byte tables (the table slice header and bounds are hoisted out of the
// per-state work); the other cases minimize key by key.
func (c *Canon) CanonicalizeBatch(block []uint64, count int) {
	s := c.s
	w := s.codec.Words()
	switch {
	case s.chunks != nil:
		t, cw := s.chunks, s.chunkBits
		e := len(t) >> (cw + 2)
		mask := uint64(1)<<cw - 1
		keys := block[:count]
		for i, k := range keys {
			// The four runs of e images, one per chunk of k.
			r0 := t[int(k&mask)*e:][:e]
			r1 := t[int(1<<cw|k>>cw&mask)*e:][:e]
			r2 := t[int(2<<cw|k>>(2*cw)&mask)*e:][:e]
			r3 := t[int(3<<cw|k>>(3*cw)&mask)*e:][:e]
			best := k
			for a, img := range r0 {
				best = min(best, img|r1[a]|r2[a]|r3[a])
			}
			keys[i] = best
		}
	case s.scan && w == 1:
		tables := s.tables
		for i := 0; i < count; i++ {
			k := block[i]
			best := k
			for ai := range tables {
				if cand := applyTable(&tables[ai], k); cand < best {
					best = cand
				}
			}
			block[i] = best
		}
	case s.scan:
		for i := 0; i < count; i++ {
			c.scanMin(block[i*w : (i+1)*w])
		}
	default:
		for i := 0; i < count; i++ {
			c.orbitMin(block[i*w : (i+1)*w])
		}
	}
}

// scanMin rewrites a multi-word key to the minimum of its images under
// every group element.
func (c *Canon) scanMin(key []uint64) {
	copy(c.best, key)
	for a := 0; a < len(c.s.tables)/(len(key)*len(key)); a++ {
		c.s.apply(a, key, c.img)
		if wordsLess(c.img, c.best) {
			copy(c.best, c.img)
		}
	}
	copy(key, c.best)
}

// orbitMin BFS-enumerates the orbit of key under the generator tables and
// rewrites key to its minimum, visiting each orbit element once.
func (c *Canon) orbitMin(key []uint64) {
	seen := c.seen
	seen.Reset()
	seen.Intern(key)
	best := 0
	gens := len(c.s.tables) / (len(key) * len(key))
	for head := 0; head < seen.Len(); head++ {
		// Interning only appends to the arena, so cur stays intact even
		// when an append moves the arena elsewhere.
		cur := seen.At(head)
		for g := 0; g < gens; g++ {
			c.s.apply(g, cur, c.img)
			if id, fresh := seen.Intern(c.img); fresh && wordsLess(c.img, seen.At(best)) {
				best = id
			}
		}
	}
	copy(key, seen.At(best))
}

// wordsLess orders packed states as unsigned integers (word 0 least
// significant).
func wordsLess(a, b []uint64) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
