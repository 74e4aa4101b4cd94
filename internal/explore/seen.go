package explore

import "stateless/internal/enc"

// SeenDenseMaxBits is the widest packed key the sequential interner backs
// with a direct-indexed slot array (2^16 int32 slots = 256 KiB): wide
// enough for every small-ring/clique cycle-detection codec, small enough
// that allocating it per run is noise.
const SeenDenseMaxBits = 16

// Seen interns fixed-width packed keys and assigns sequential IDs 0, 1,
// 2, … in insertion order — the visited set of the simulators' cycle
// detection (internal/sim, internal/stateful, internal/almoststateless),
// whose per-step bookkeeping indexes by the returned ID. Narrow keys
// (≤ SeenDenseMaxBits packed bits) get a direct-indexed table, so
// interning is one bounds-checked load and store with no hashing or
// probing; wider keys fall back to an enc.Table.
// Not safe for concurrent use.
type Seen struct {
	direct []int32 // id+1 per packed value; 0 = empty
	tab    *enc.Table
	count  int
}

// NewSeen returns an interner for keys of the codec's width, pre-sized for
// about hint states when hash-backed.
func NewSeen(codec *enc.Codec, hint int) *Seen {
	if codec.Bits() <= SeenDenseMaxBits {
		return &Seen{direct: make([]int32, 1<<uint(codec.Bits()))}
	}
	return &Seen{tab: enc.NewTable(codec.Words(), hint)}
}

// Intern returns key's sequential ID and whether it was new.
func (s *Seen) Intern(key []uint64) (int, bool) {
	if s.direct != nil {
		slot := &s.direct[key[0]]
		if *slot != 0 {
			return int(*slot - 1), false
		}
		id := s.count
		s.count++
		*slot = int32(id + 1)
		return id, true
	}
	id, fresh := s.tab.Intern(key)
	if fresh {
		s.count++
	}
	return id, fresh
}

// Len returns the number of interned keys.
func (s *Seen) Len() int { return s.count }
