// Package enc provides the packed state encoding that the state-space
// engines key on: the states-graph verifier (internal/verify, through the
// stores and symmetry quotient of internal/explore) and the
// configuration-cycle detectors of internal/sim, internal/stateful and
// internal/almoststateless (each interning into a Table). A state — a
// labeling ℓ ∈ Σ^E, optionally extended with the Theorem 3.1 per-node
// inactivity countdown and the per-node output vector — is bit-packed into
// ⌈bits/64⌉ uint64 words, and interned in an open-addressing Table whose
// keys live in one contiguous arena. Compared to the former
// map[string]int keying (8 bytes per edge per freshly allocated string),
// packing does zero per-state allocations and shrinks a state to
// ⌈log₂|Σ|⌉ bits per edge, which is what lets the verifier run at
// model-checker speeds.
package enc

import (
	"math/bits"

	"stateless/internal/core"
)

// Codec describes one state layout: m labels of labelBits each, then n
// countdown fields of cdBits each, then n output bits (when tracked).
// Countdown and output sections are optional (n = 0 / outputs = false).
type Codec struct {
	m         int
	labelBits uint
	n         int
	cdBits    uint
	outputs   bool

	labelPrefixBits int // m·labelBits: the bit length of the labels section
	totalBits       int
	words           int
}

// NewLabelCodec returns a codec for bare labelings ℓ ∈ Σ^E on m edges —
// the layout used for configuration-cycle detection in internal/sim,
// internal/stateful and internal/almoststateless.
func NewLabelCodec(space core.LabelSpace, m int) *Codec {
	return NewStateCodec(space, m, 0, 0, false)
}

// NewStateCodec returns a codec for full states-graph vertices: m labels
// from space, n countdown fields in {0..maxCountdown}, and, when outputs
// is true, n output bits. n = 0 omits the countdown section.
func NewStateCodec(space core.LabelSpace, m, n, maxCountdown int, outputs bool) *Codec {
	c := &Codec{
		m:         m,
		labelBits: uint(space.Bits()),
		n:         n,
		cdBits:    uint(bits.Len(uint(maxCountdown))),
		outputs:   outputs,
	}
	c.labelPrefixBits = m * int(c.labelBits)
	c.totalBits = c.labelPrefixBits + n*int(c.cdBits)
	if outputs {
		c.totalBits += n
	}
	c.words = (c.totalBits + 63) / 64
	if c.words == 0 {
		// Degenerate spaces (|Σ| = 1, no countdowns) still need a key.
		c.words = 1
	}
	return c
}

// Words returns the number of uint64 words one packed state occupies.
func (c *Codec) Words() int { return c.words }

// Bits returns the total packed width of one state in bits. Store selection
// keys on it: states at most explore.DenseMaxBits wide fit a direct-indexed
// bitset store in which the packed value is the state ID.
func (c *Codec) Bits() int { return c.totalBits }

// M returns the number of label fields (edges) in the layout.
func (c *Codec) M() int { return c.m }

// N returns the number of countdown fields (nodes) in the layout.
func (c *Codec) N() int { return c.n }

// HasOutputs reports whether the layout carries an output section.
func (c *Codec) HasOutputs() bool { return c.outputs }

// Field geometry accessors. The symmetry quotient (internal/explore) uses
// them to precompute bit-permutation tables that map a packed state to its
// image under a graph automorphism without unpacking.

// LabelFieldBits returns the width of one label field.
func (c *Codec) LabelFieldBits() int { return int(c.labelBits) }

// CountdownFieldBits returns the width of one countdown field.
func (c *Codec) CountdownFieldBits() int { return int(c.cdBits) }

// LabelOffset returns the bit offset of label field i.
func (c *Codec) LabelOffset(i int) int { return i * int(c.labelBits) }

// CountdownOffset returns the bit offset of countdown field i.
func (c *Codec) CountdownOffset(i int) int { return c.labelPrefixBits + i*int(c.cdBits) }

// OutputOffset returns the bit offset of output bit i. Only valid on codecs
// constructed with outputs = true.
func (c *Codec) OutputOffset(i int) int { return c.labelPrefixBits + c.n*int(c.cdBits) + i }

func maskOf(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (1 << width) - 1
}

// put writes the low width bits of v at bit offset off. words must be
// zeroed at [off, off+width) beforehand (Pack zeroes the whole buffer).
func put(words []uint64, off int, width uint, v uint64) {
	v &= maskOf(width)
	wi, sh := off>>6, uint(off&63)
	words[wi] |= v << sh
	if sh+width > 64 {
		words[wi+1] |= v >> (64 - sh)
	}
}

// get reads width bits at bit offset off.
func get(words []uint64, off int, width uint) uint64 {
	wi, sh := off>>6, uint(off&63)
	v := words[wi] >> sh
	if sh+width > 64 {
		v |= words[wi+1] << (64 - sh)
	}
	return v & maskOf(width)
}

// grow returns dst resized to exactly c.Words() zeroed words, reusing its
// backing array when possible.
func (c *Codec) grow(dst []uint64) []uint64 {
	if cap(dst) < c.words {
		return make([]uint64, c.words)
	}
	dst = dst[:c.words]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// PackLabels packs a bare labeling into dst (reused when large enough) and
// returns the packed words. Countdown/output sections, if the codec has
// them, are left zero.
func (c *Codec) PackLabels(l core.Labeling, dst []uint64) []uint64 {
	dst = c.grow(dst)
	if c.labelBits == 0 {
		return dst
	}
	off := 0
	for _, v := range l {
		put(dst, off, c.labelBits, uint64(v))
		off += int(c.labelBits)
	}
	return dst
}

// Pack packs a full state (labels, countdown, outputs) into dst and returns
// the packed words. cd must have length n; out is ignored unless the codec
// tracks outputs, in which case it must have length n.
func (c *Codec) Pack(l core.Labeling, cd []uint8, out []core.Bit, dst []uint64) []uint64 {
	dst = c.PackLabels(l, dst)
	off := c.labelPrefixBits
	for _, v := range cd {
		put(dst, off, c.cdBits, uint64(v))
		off += int(c.cdBits)
	}
	if c.outputs {
		for _, b := range out {
			put(dst, off, 1, uint64(b))
			off++
		}
	}
	return dst
}

// UnpackLabels decodes the labels section into dst (reused when large
// enough) and returns it.
func (c *Codec) UnpackLabels(src []uint64, dst core.Labeling) core.Labeling {
	if cap(dst) < c.m {
		dst = make(core.Labeling, c.m)
	}
	dst = dst[:c.m]
	off := 0
	for i := range dst {
		dst[i] = core.Label(get(src, off, c.labelBits))
		off += int(c.labelBits)
	}
	return dst
}

// UnpackCountdown decodes the countdown section into dst and returns it.
func (c *Codec) UnpackCountdown(src []uint64, dst []uint8) []uint8 {
	if cap(dst) < c.n {
		dst = make([]uint8, c.n)
	}
	dst = dst[:c.n]
	off := c.labelPrefixBits
	for i := range dst {
		dst[i] = uint8(get(src, off, c.cdBits))
		off += int(c.cdBits)
	}
	return dst
}

// UnpackOutputs decodes the output section into dst and returns it. Only
// valid on codecs constructed with outputs = true.
func (c *Codec) UnpackOutputs(src []uint64, dst []core.Bit) []core.Bit {
	if cap(dst) < c.n {
		dst = make([]core.Bit, c.n)
	}
	dst = dst[:c.n]
	off := c.labelPrefixBits + c.n*int(c.cdBits)
	for i := range dst {
		dst[i] = core.Bit(get(src, off, 1))
		off++
	}
	return dst
}

// CompareLabels orders two packed states by their label sections. The order
// is a fixed (encoding-determined) total order used to pick canonical
// witnesses, so parallel verifier runs report identical witnesses
// regardless of worker count or discovery order.
func (c *Codec) CompareLabels(a, b []uint64) int {
	return compareBits(a, b, 0, c.labelPrefixBits)
}

// CompareOutputs orders two packed states by their output sections.
func (c *Codec) CompareOutputs(a, b []uint64) int {
	from := c.labelPrefixBits + c.n*int(c.cdBits)
	return compareBits(a, b, from, from+c.n)
}

func compareBits(a, b []uint64, from, to int) int {
	if from >= to {
		return 0
	}
	fw, lw := from>>6, (to-1)>>6
	for wi := fw; wi <= lw; wi++ {
		av, bv := a[wi], b[wi]
		if wi == fw {
			lo := uint(from & 63)
			av >>= lo
			bv >>= lo
		} else {
			// Undo the first-word shift alignment: compare raw words.
		}
		if wi == lw {
			used := uint(to - wi<<6)
			if wi == fw {
				used -= uint(from & 63)
			}
			av &= maskOf(used)
			bv &= maskOf(used)
		}
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Hash mixes the packed words into a 64-bit hash (splitmix64-style mixing
// per word). Used both for shard ownership and for table probing.
func Hash(words []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Table interns fixed-width packed states. Keys are stored back to back in
// one arena slice; the open-addressing index maps hash slots to 1-based
// state IDs. The zero Table is not usable; call NewTable. A Table is not
// safe for concurrent use.
type Table struct {
	w     int
	arena []uint64
	slots []int32 // 1-based state IDs; 0 = empty
	mask  uint64
	count int
}

// probeLimit is the displacement bound that triggers an early rehash: an
// insertion that walks more than probeLimit occupied slots doubles the
// table even below the load-factor threshold, so probe chains stay bounded
// when the hash clusters (the load-factor trigger alone lets a hot cluster
// degrade every Intern that hashes into it).
const probeLimit = 64

// NewTable returns a table for keys of wordsPerKey words, its index and
// arena pre-sized for about hint states.
func NewTable(wordsPerKey, hint int) *Table {
	cap := 16
	for cap < hint*2 {
		cap <<= 1
	}
	return &Table{
		w:     wordsPerKey,
		arena: make([]uint64, 0, hint*wordsPerKey),
		slots: make([]int32, cap),
		mask:  uint64(cap - 1),
	}
}

// Reset empties the table: IDs restart at 0, while the slot array and
// arena keep their capacity, so a table reset per use allocates only while
// it grows.
func (t *Table) Reset() {
	clear(t.slots)
	t.arena = t.arena[:0]
	t.count = 0
}

// Len returns the number of interned states.
func (t *Table) Len() int { return t.count }

// At returns a view of state id's packed words (do not mutate, do not
// retain across Intern calls — the arena may be reallocated).
func (t *Table) At(id int) []uint64 {
	return t.arena[id*t.w : (id+1)*t.w : (id+1)*t.w]
}

func keysEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup returns the ID of key if it is already interned, without inserting.
func (t *Table) Lookup(key []uint64) (int, bool) {
	for i := Hash(key) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if keysEqual(t.At(int(s-1)), key) {
			return int(s - 1), true
		}
	}
}

// Intern returns the dense 0-based ID of key, adding it if new (second
// return true). key must have exactly wordsPerKey words; the table copies
// it into the arena, so callers can reuse the buffer.
func (t *Table) Intern(key []uint64) (int, bool) {
	chain := 0
	for i := Hash(key) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			id := t.count
			t.arena = append(t.arena, key...)
			t.slots[i] = int32(id + 1)
			t.count++
			if uint64(t.count)*4 > 3*(t.mask+1) || chain > probeLimit {
				t.rehash()
			}
			return id, true
		}
		if keysEqual(t.At(int(s-1)), key) {
			return int(s - 1), false
		}
		chain++
	}
}

func (t *Table) rehash() {
	newCap := (t.mask + 1) * 2
	slots := make([]int32, newCap)
	mask := newCap - 1
	for id := 0; id < t.count; id++ {
		h := Hash(t.At(id))
		for i := h & mask; ; i = (i + 1) & mask {
			if slots[i] == 0 {
				slots[i] = int32(id + 1)
				break
			}
		}
	}
	t.slots = slots
	t.mask = mask
}
