package explore

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"stateless/internal/enc"
)

// Bitstate metric names, registered in addition to the generic store
// gauges when the engine runs a bitstate store.
const (
	// MetricStoreSetBits is the number of set bits in the Bloom array.
	MetricStoreSetBits = "store/set_bits"
	// MetricStoreSaturationPPM is set bits / total bits in parts per
	// million. Spin's rule of thumb: keep the hash factor (bits per
	// state) above ~100, i.e. saturation well below 1e4 ppm, or the
	// omission probability becomes noticeable.
	MetricStoreSaturationPPM = "store/saturation_ppm"
)

// Bitstate is a lossy Bloom-filter visited set in the style of Spin's
// -bitstate mode: a power-of-two bit array where each packed state sets k
// bits derived by double hashing. Intern answers fresh=false when all k
// bits were already set, which can be a collision with previously visited
// states — so a bitstate run can only ever under-explore, never invent
// states. Verdicts produced over a Bitstate store must therefore be
// reported as "no violation found", never as exact verification; concrete
// violation witnesses remain exact because they are re-checked against the
// transition relation, not the store.
//
// The store is lossy (Lossy() == true): interned states cannot be read
// back, so Rank and WordsAt panic; the engine's frontier carries every
// state's packed key, so exploration never needs them.
//
// All operations are allocation-free, and the already-visited case — the
// common one — is lock-free (atomic loads on the bit words), which is what
// makes bitstate interning faster than the exact stores. Only an intern
// that finds one of its bits unset takes a striped mutex (see intern).
type Bitstate struct {
	words []atomic.Uint64 // the bit array, len = 1<<(log2bits-6)
	mask  uint64          // bit-index mask, 1<<log2bits - 1
	k     int             // hash functions per state
	wpk   int             // words per key
	log2  int             // log2 of the bit capacity

	states  atomic.Int64 // fresh Intern answers (admitted states)
	setBits atomic.Int64 // bits newly set (≤ k·states)

	stripes [1 << bitstateStripeBits]sync.Mutex // see intern
}

// bitstateStripeBits sets the number of intern mutex stripes.
const bitstateStripeBits = 10

// minBitstateLog2 keeps the array at least one word long.
const minBitstateLog2 = 6

// NewBitstate returns a Bloom visited set with 1<<log2bits bits and k hash
// functions for keys of wordsPerKey packed words. log2bits is clamped to
// [6, 40] (one word .. 128 GiB); k is clamped to [1, 8].
func NewBitstate(wordsPerKey, log2bits, k int) *Bitstate {
	if log2bits < minBitstateLog2 {
		log2bits = minBitstateLog2
	}
	if log2bits > 40 {
		log2bits = 40
	}
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	nbits := uint64(1) << log2bits
	return &Bitstate{
		words: make([]atomic.Uint64, nbits>>6),
		mask:  nbits - 1,
		k:     k,
		wpk:   wordsPerKey,
		log2:  log2bits,
	}
}

// Words returns the key width.
func (b *Bitstate) Words() int { return b.wpk }

// Lossy returns true: the bitstate store is an approximate visited set.
func (b *Bitstate) Lossy() bool { return true }

// K returns the number of hash functions per state.
func (b *Bitstate) K() int { return b.k }

// Bits returns the bit capacity of the array.
func (b *Bitstate) Bits() int64 { return int64(b.mask) + 1 }

// remix is a finalizing mix used to derive the double-hashing stride from
// the primary hash (Kirsch–Mitzenmacher: k hashes h1 + i·h2 preserve the
// Bloom false-positive bound of k independent hashes).
func remix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// intern sets the k bits for key and reports whether any was newly set.
// A key whose bits are all set is answered lock-free. Otherwise the bits
// are set under the key's stripe mutex: without it, two workers racing on
// the same unseen state could each set one of its bits and both answer
// fresh, admitting (and expanding) the state twice. Keys of other stripes
// may share bit words, so the set-bit stays atomic. It is an explicit
// Load + CompareAndSwap loop rather than atomic.Uint64.Or: the toolchain
// pinned in this repo (go1.24.0) miscompiles the Or intrinsic when its
// result is consumed (the receiver register is clobbered by the fallback
// CAS loop).
func (b *Bitstate) intern(key []uint64) bool {
	h1 := enc.Hash(key)
	h2 := remix(h1) | 1 // odd stride visits every bit of the 2^m array
	if b.allSet(h1, h2) {
		return false // visited, or a collision
	}
	mu := &b.stripes[h1>>(64-bitstateStripeBits)]
	mu.Lock()
	defer mu.Unlock()
	newBits := int64(0)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		bit := uint64(1) << (pos & 63)
		w := &b.words[pos>>6]
		for {
			old := w.Load()
			if old&bit != 0 {
				break // already set (by a collision)
			}
			if w.CompareAndSwap(old, old|bit) {
				newBits++
				break
			}
		}
	}
	if newBits == 0 {
		return false // a racing intern of the same key got here first
	}
	b.setBits.Add(newBits)
	b.states.Add(1)
	return true
}

// allSet reports whether all k bits of the key hashing to (h1, h2) are set.
func (b *Bitstate) allSet(h1, h2 uint64) bool {
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) & b.mask
		if b.words[pos>>6].Load()&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// Intern records key in the visited set. The returned ID is always 0:
// bitstate states have no identity, and the engine must not use IDs from a
// lossy store. fresh=false may be a hash collision (see type comment).
func (b *Bitstate) Intern(key []uint64) (int32, bool, error) {
	return 0, b.intern(key), nil
}

// InternBatch interns len(ids) keys stored back to back in block. All IDs
// are written as 0 (see Intern); fresh[i] reports per-key freshness.
func (b *Bitstate) InternBatch(block []uint64, ids []int32, fresh []bool) error {
	for i := range ids {
		ids[i] = 0
		fresh[i] = b.intern(block[i*b.wpk : (i+1)*b.wpk])
	}
	return nil
}

// Len returns the number of admitted (fresh) states.
func (b *Bitstate) Len() int { return int(b.states.Load()) }

// Compact freezes nothing (the bit array is immutable in shape) and
// returns the admitted state count. Rank/WordsAt remain unavailable.
func (b *Bitstate) Compact() int { return b.Len() }

// Rank is unavailable on a lossy store and panics.
func (b *Bitstate) Rank(int32) int32 {
	panic("explore: Rank on bitstate store (lossy: states are not recoverable)")
}

// WordsAt is unavailable on a lossy store and panics.
func (b *Bitstate) WordsAt(int32, []uint64) []uint64 {
	panic("explore: WordsAt on bitstate store (lossy: states are not recoverable)")
}

// SetBits returns the number of set bits in the array.
func (b *Bitstate) SetBits() int64 { return b.setBits.Load() }

// SaturationPPM returns set bits per million bits of capacity.
func (b *Bitstate) SaturationPPM() int64 {
	return b.setBits.Load() * 1e6 / b.Bits()
}

// HashFactor returns bit capacity divided by admitted states — Spin's
// hash-factor diagnostic (pan reports it after every bitstate run; results
// are considered trustworthy when it exceeds ~100).
func (b *Bitstate) HashFactor() float64 {
	n := b.states.Load()
	if n == 0 {
		return float64(b.Bits())
	}
	return float64(b.Bits()) / float64(n)
}

// Stats reports occupancy of the bit array. Capacity is the bit capacity
// and States the admitted state count, so Occupancy understates bit
// saturation by ~k; see MetricStoreSaturationPPM for the true fill.
func (b *Bitstate) Stats() StoreStats {
	return StoreStats{
		Kind:     "bitstate",
		States:   b.states.Load(),
		Capacity: b.Bits(),
		Bytes:    int64(len(b.words)) * 8,
	}
}

// snapshotWords copies the bit array into dst (len = Bits()/64) for
// checkpointing. The copy is not atomic across words; callers must
// quiesce interning first (the engine checkpoints at a frontier barrier).
func (b *Bitstate) snapshotWords(dst []uint64) error {
	if len(dst) != len(b.words) {
		return fmt.Errorf("bitstate snapshot: have %d words, want %d", len(dst), len(b.words))
	}
	for i := range b.words {
		dst[i] = b.words[i].Load()
	}
	return nil
}

// restoreWords overwrites the bit array from a checkpoint snapshot and
// recounts setBits; states is restored by the engine from the manifest.
func (b *Bitstate) restoreWords(src []uint64, states int64) error {
	if len(src) != len(b.words) {
		return fmt.Errorf("bitstate restore: have %d words, want %d", len(src), len(b.words))
	}
	var set int64
	for i, w := range src {
		b.words[i].Store(w)
		set += int64(bits.OnesCount64(w))
	}
	b.setBits.Store(set)
	b.states.Store(states)
	return nil
}
