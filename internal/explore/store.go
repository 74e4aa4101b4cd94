// Package explore is the state-space exploration engine behind
// internal/verify's states-graph search. It provides pluggable
// visited-state stores over the packed encoding of internal/enc:
//
//   - a dense direct-indexed store for narrow states (≤ DenseMaxBits packed
//     bits): the packed value *is* the state ID and the visited set is an
//     atomic-CAS bitset, so interning a state costs one load and one CAS —
//     no hashing, no locks, no arena;
//   - a sharded-hash store for wide states: 2^shardBits linear-probing
//     shards whose slots carry a hash tag beside the ID, over key pages
//     that never move. Finding an interned key takes no lock and writes no
//     shared memory; only an insert takes its shard's lock. A batch is
//     looked up a window at a time, all home slots loaded before any is
//     examined, so the cache misses of a store larger than the cache
//     overlap.
//
// On top of the stores sit a bounded-worker BFS driver (Run), a symmetry
// quotient that canonicalizes states modulo the graph's order-preserving
// automorphisms (Symmetry/Canon), and a chunked parallel enumerator of Σ^m
// (Labelings).
package explore

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"stateless/internal/enc"
	"stateless/internal/obs"
)

// DenseMaxBits is the widest packed state the dense direct-indexed store
// accepts. At 30 bits the visited bitset spans 2^30 states = 128 MiB of
// (lazily faulted) zero pages; beyond that the sharded-hash store wins.
const DenseMaxBits = 30

// DenseAutoMaxBits is the widest packed state NewStore picks the dense
// store for on its own. The dense store pays O(2^bits) fixed cost
// (allocating, and at Compact scanning, the bitset); at 26 bits that is an
// 8 MiB bitset — cheap against any exploration worth parallelizing —
// while at the 27..30-bit margin sparse explorations are usually better
// off hashing. Callers who know their occupancy can still force
// StoreDense up to DenseMaxBits.
const DenseAutoMaxBits = 26

// ErrLimit is returned when an exploration exceeds its state budget (or a
// store overflows its ID space).
var ErrLimit = errors.New("explore: state limit exceeded")

// StoreStats is a point-in-time description of a store's occupancy and
// probe behaviour — the pull side of the observability layer. All fields
// are cheap to read; Stats is called only when a metrics snapshot is taken
// (internal/obs pull gauges), never on the intern hot path.
type StoreStats struct {
	// Kind is "dense", "hash" or "bitstate".
	Kind string
	// States is the number of interned states.
	States int64
	// Capacity is the addressable slot count (dense: 2^bits; hash: total
	// open-addressing slots across shards). Occupancy = States/Capacity.
	Capacity int64
	// Bytes is the store's resident memory (dense: the bitset; hash:
	// arenas plus slot tables).
	Bytes int64
	// Probes counts hash-table slot inspections beyond the home slot —
	// the open-addressing displacement total, counted once per key even
	// when a lock-free miss re-probes under the lock (always 0 for the
	// dense store, which does no probing).
	Probes int64
	// Collisions counts interning retries: CAS retries for the dense
	// bitset, occupied-slot probe steps for the hash store.
	Collisions int64
	// MaxProbe is the longest probe chain any single hash-store operation
	// walked (0 for stores that do not probe). Shard growth keeps it
	// bounded; a growing MaxProbe at moderate occupancy means the hash is
	// clustering.
	MaxProbe int64
}

// Occupancy returns States/Capacity in [0, 1] (0 when capacity unknown).
func (s StoreStats) Occupancy() float64 {
	if s.Capacity <= 0 {
		return 0
	}
	return float64(s.States) / float64(s.Capacity)
}

// Store is a concurrent visited-state set over fixed-width packed keys.
// IDs are stable but arbitrary (the dense store uses the packed value
// itself, the hash store a shard-encoded index); Compact freezes the store
// and exposes a dense 0-based ranking for post-exploration graph analysis.
//
// IDs are always non-negative int32 values: a dense key has at most
// DenseMaxBits = 30 bits, and a hash ID is at most maxLocalID<<shardBits |
// (2^shardBits − 1) < 2^31 (a shard growing past maxLocalID is an ErrLimit
// overflow, not a wrapped ID). Callers may therefore use bit 31 of an ID
// as a flag — the verifier's edge log does.
type Store interface {
	// Words returns the number of uint64 words per key.
	Words() int
	// Intern adds key and returns its ID plus whether it was new.
	// Safe for concurrent use.
	Intern(key []uint64) (id int32, fresh bool, err error)
	// InternBatch interns len(ids) keys stored back to back in block
	// (len(ids)·Words() words), writing each key's ID and freshness into
	// ids[i] / fresh[i]. Equivalent to len(ids) Intern calls — duplicates
	// within a batch resolve to one ID with exactly one fresh=true — but
	// lets the store amortize per-key overhead (shared counters are
	// updated once per batch instead of once per key). Safe for
	// concurrent use.
	InternBatch(block []uint64, ids []int32, fresh []bool) error
	// Len returns the number of interned states.
	Len() int
	// Compact freezes the store (no Intern afterwards) and returns the
	// total state count. Rank and WordsAt are valid only after Compact.
	Compact() int
	// Rank maps an ID to its dense index in [0, Compact()).
	Rank(id int32) int32
	// WordsAt returns the packed words of the rank-th state. The result
	// must be treated as read-only; buf is used as backing storage when the
	// store has to materialize the words (callers comparing two states must
	// pass distinct bufs).
	WordsAt(rank int32, buf []uint64) []uint64
	// Stats reports the store's current occupancy and probe statistics.
	// Safe for concurrent use with Intern; called from metrics snapshots.
	Stats() StoreStats
	// Lossy reports whether the store is an approximate visited set (the
	// bitstate/Bloom store): fresh=false answers may be hash collisions and
	// interned states are not recoverable, so Rank and WordsAt are
	// unavailable and analyses over the explored graph are downgraded to
	// on-the-fly checks. The engine explores every store the same way (the
	// state travels in the frontier, never read back by ID); there Lossy
	// only gates checkpointing, which needs the bitstate store.
	Lossy() bool
}

// Store metric names (see registerStoreMetrics / Config.Metrics).
const (
	MetricStoreStates       = "store/states"
	MetricStoreCapacity     = "store/capacity"
	MetricStoreOccupancyPPM = "store/occupancy_ppm"
	MetricStoreBytes        = "store/bytes"
	MetricStoreProbes       = "store/probes"
	MetricStoreCollisions   = "store/collisions"
	MetricStoreMaxProbe     = "store/max_probe"
)

// registerStoreMetrics exposes a store's Stats as pull gauges. Occupancy
// is reported in parts per million so the whole snapshot stays integral
// (and therefore byte-deterministic in JSON).
func registerStoreMetrics(m *obs.Registry, s Store) {
	m.Func(MetricStoreStates, func() int64 { return s.Stats().States })
	m.Func(MetricStoreCapacity, func() int64 { return s.Stats().Capacity })
	m.Func(MetricStoreOccupancyPPM, func() int64 { return int64(s.Stats().Occupancy() * 1e6) })
	m.Func(MetricStoreBytes, func() int64 { return s.Stats().Bytes })
	m.Func(MetricStoreProbes, func() int64 { return s.Stats().Probes })
	m.Func(MetricStoreCollisions, func() int64 { return s.Stats().Collisions })
	m.Func(MetricStoreMaxProbe, func() int64 { return s.Stats().MaxProbe })
	if bs, ok := s.(*Bitstate); ok {
		m.Func(MetricStoreSetBits, func() int64 { return bs.SetBits() })
		m.Func(MetricStoreSaturationPPM, func() int64 { return bs.SaturationPPM() })
	}
}

// NewStore picks a store for the codec: dense direct-indexed when the
// packed width fits DenseAutoMaxBits, sharded-hash otherwise.
func NewStore(codec *enc.Codec) Store {
	if codec.Bits() <= DenseAutoMaxBits {
		return NewDense(codec.Bits())
	}
	return NewHash(codec.Words())
}

// ---------------------------------------------------------------------------
// Dense direct-indexed store.

// Dense is the direct-indexed store: state keys are at most DenseMaxBits
// wide, the key is the ID, and visited-ness is one bit in an atomic bitset.
type Dense struct {
	bits       int
	visited    []atomic.Uint64
	count      atomic.Int64
	collisions atomic.Int64 // CAS retries (another worker raced the word)

	// Filled by Compact: ids lists the visited keys in ascending numeric
	// order (rank → key) and prefix[w] counts the set bits before bitset
	// word w (for O(1) Rank).
	ids    []int32
	prefix []int32
}

// NewDense returns a dense store for packed keys of the given bit width
// (must be ≤ DenseMaxBits). The bitset is allocated eagerly but untouched
// pages cost nothing until a state in their range is visited.
func NewDense(width int) *Dense {
	if width > DenseMaxBits {
		panic(fmt.Sprintf("explore: dense store over %d bits (max %d)", width, DenseMaxBits))
	}
	words := 1 << uint(max(0, width-6))
	return &Dense{bits: width, visited: make([]atomic.Uint64, words)}
}

// Words returns 1: dense keys are single-word by construction.
func (d *Dense) Words() int { return 1 }

// Lossy returns false: the dense store is exact.
func (d *Dense) Lossy() bool { return false }

// Intern marks key visited. The ID is the packed value itself.
func (d *Dense) Intern(key []uint64) (int32, bool, error) {
	k := key[0]
	w := &d.visited[k>>6]
	bit := uint64(1) << (k & 63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return int32(k), false, nil
		}
		if w.CompareAndSwap(old, old|bit) {
			d.count.Add(1)
			return int32(k), true, nil
		}
		d.collisions.Add(1)
	}
}

// InternBatch marks a block of keys visited, touching the shared counter
// once per batch instead of once per fresh key.
func (d *Dense) InternBatch(block []uint64, ids []int32, fresh []bool) error {
	freshCount, retries := int64(0), int64(0)
	for i, k := range block {
		ids[i] = int32(k)
		w := &d.visited[k>>6]
		bit := uint64(1) << (k & 63)
		for {
			old := w.Load()
			if old&bit != 0 {
				fresh[i] = false
				break
			}
			if w.CompareAndSwap(old, old|bit) {
				fresh[i] = true
				freshCount++
				break
			}
			retries++
		}
	}
	if freshCount > 0 {
		d.count.Add(freshCount)
	}
	if retries > 0 {
		d.collisions.Add(retries)
	}
	return nil
}

// Len returns the number of visited states.
func (d *Dense) Len() int { return int(d.count.Load()) }

// Compact builds the rank index. Ranks follow numeric key order, i.e. the
// packed-value order internal/enc's comparators define.
func (d *Dense) Compact() int {
	d.prefix = make([]int32, len(d.visited))
	d.ids = make([]int32, 0, d.count.Load())
	total := int32(0)
	for wi := range d.visited {
		d.prefix[wi] = total
		w := d.visited[wi].Load()
		for w != 0 {
			b := bits.TrailingZeros64(w)
			d.ids = append(d.ids, int32(wi<<6|b))
			w &= w - 1
			total++
		}
	}
	return int(total)
}

// Rank returns id's dense index via prefix popcounts.
func (d *Dense) Rank(id int32) int32 {
	k := uint64(id)
	w := d.visited[k>>6].Load()
	return d.prefix[k>>6] + int32(bits.OnesCount64(w&(1<<(k&63)-1)))
}

// WordsAt materializes the rank-th state into buf — the ID is the state.
func (d *Dense) WordsAt(rank int32, buf []uint64) []uint64 {
	if cap(buf) < 1 {
		buf = make([]uint64, 1)
	}
	buf = buf[:1]
	buf[0] = uint64(d.ids[rank])
	return buf
}

// Stats reports bitset occupancy and CAS contention. Bytes covers only the
// always-live bitset (the Compact-time rank index is excluded so Stats
// stays safe to call concurrently with Compact).
func (d *Dense) Stats() StoreStats {
	return StoreStats{
		Kind:       "dense",
		States:     d.count.Load(),
		Capacity:   1 << uint(d.bits),
		Bytes:      int64(len(d.visited)) * 8,
		Collisions: d.collisions.Load(),
	}
}

// ---------------------------------------------------------------------------
// Sharded-hash store (fallback for wide states).

// shardBits fixes the ownership-hash shard count (2^shardBits shards, each
// with its own insert lock); more shards than workers keeps insert
// contention negligible.
const shardBits = 6

const maxLocalID = (1 << (31 - shardBits)) - 1

const (
	// hashInitialSlots is each shard's starting slot count.
	hashInitialSlots = 128
	// hashProbeLimit is the displacement bound that triggers an early
	// rehash: an insertion that walks more than hashProbeLimit occupied
	// slots doubles the shard even below the 3/4 load factor, so probe
	// chains stay bounded when the hash clusters.
	hashProbeLimit = 64
	// pageShift sets the keys per arena page (1024). Pages never move, so a
	// lock-free reader can hold a key view while the shard grows.
	pageShift = 10
	pageMask  = 1<<pageShift - 1
	// slotIDMask selects the local ID + 1 in a slot value; the tag sits
	// above it.
	slotIDMask = 1<<32 - 1
)

// hashSlots is one published open-addressing index. Each slot holds
// tag<<32 | (local ID + 1), where the tag is the key hash's high 32 bits,
// so a probe skips the arena read of any key whose tag differs; 0 means
// empty. Once published, a slot array only gains entries; growth builds
// and publishes a new one.
type hashSlots struct {
	s    []atomic.Uint64
	mask uint64
}

// hashShard is one shard of the sharded-hash store: a linear-probing index
// over keys stored in fixed-size pages. Lookups are lock-free: they load
// the published slot array and page directory and write no shared memory.
// Inserts and growth take mu. A key is copied into its page before its slot
// is published, so a reader that sees the slot sees the key. A reader
// still holding a slot array that growth has replaced can only miss a key,
// never mismatch one, and the locked insert path re-probes the current
// array before adding anything.
type hashShard struct {
	slots atomic.Pointer[hashSlots]
	pages atomic.Pointer[[][]uint64]
	// The pads keep the read-mostly pointers and the insert-side fields
	// below on different cache lines, whatever the array's alignment, so
	// an insert does not evict the pointers from the other cores' caches.
	_     [64]byte
	mu    sync.Mutex
	count int // keys stored; guarded by mu
	_     [64]byte
}

// key returns a view of the local-th key's words in its page.
func (s *hashShard) key(local int32, w int) []uint64 {
	page := (*s.pages.Load())[local>>pageShift]
	off := int(local&pageMask) * w
	return page[off : off+w : off+w]
}

// probe walks t from the home slot of key (with hash h) to the slot that
// holds key or to the first empty slot. It returns that slot's index and
// value (0 when empty) and the number of occupied slots passed on the way.
func (s *hashShard) probe(t *hashSlots, key []uint64, h uint64, w int) (i, v uint64, chain int64) {
	for i = h & t.mask; ; i = (i + 1) & t.mask {
		v = t.s[i].Load()
		if v == 0 || v&^slotIDMask == h&^slotIDMask && keysEqual(s.key(slotLocal(v), w), key) {
			return i, v, chain
		}
		chain++
	}
}

// slotLocal returns the local ID an occupied slot value holds.
func slotLocal(v uint64) int32 { return int32(v&slotIDMask) - 1 }

// insert interns key (with hash h) under mu: it re-probes the current slot
// array, and on a miss copies the key into its page and publishes its
// slot. It returns the local ID, whether it is new, and the probe chain.
func (s *hashShard) insert(key []uint64, h uint64, w int) (local int32, fresh bool, chain int64, err error) {
	t := s.slots.Load()
	i, v, chain := s.probe(t, key, h, w)
	if v != 0 {
		return slotLocal(v), false, chain, nil
	}
	if s.count > maxLocalID {
		return 0, false, chain, fmt.Errorf("%w: shard overflow", ErrLimit)
	}
	local = int32(s.count)
	pages := *s.pages.Load()
	if int(local>>pageShift) == len(pages) {
		pages = append(pages, make([]uint64, w<<pageShift))
		s.pages.Store(&pages)
	}
	copy(s.key(local, w), key)
	t.s[i].Store(h&^slotIDMask | uint64(local+1))
	s.count++
	if uint64(s.count)*4 > 3*(t.mask+1) || chain > hashProbeLimit {
		s.rehash(w)
	}
	return local, true, chain, nil
}

// rehash publishes a slot array of twice the size, filled in ID order.
func (s *hashShard) rehash(w int) {
	size := (s.slots.Load().mask + 1) * 2
	t := &hashSlots{s: make([]atomic.Uint64, size), mask: size - 1}
	for local := int32(0); local < int32(s.count); local++ {
		h := enc.Hash(s.key(local, w))
		i := h & t.mask
		for t.s[i].Load() != 0 {
			i = (i + 1) & t.mask
		}
		t.s[i].Store(h&^slotIDMask | uint64(local+1))
	}
	s.slots.Store(t)
}

// Hash is the sharded-hash store: 2^shardBits hashShards, owned by the
// high hash bits. A key that is already interned resolves without a lock;
// only a miss takes its shard's lock. InternBatch looks keys up in two
// phases over windows of internWindow keys — load every home slot, then
// resolve — so that on a store larger than the cache the slot misses of a
// window overlap. IDs encode (local index << shardBits) | shard.
type Hash struct {
	wpk    int
	shards [1 << shardBits]hashShard
	base   []int32
	// Probe telemetry, added once per Intern or InternBatch call.
	probes   atomic.Int64
	maxProbe atomic.Int64
}

// NewHash returns a hash store for keys of wordsPerKey words.
func NewHash(wordsPerKey int) *Hash {
	h := &Hash{wpk: wordsPerKey}
	for i := range h.shards {
		s := &h.shards[i]
		s.slots.Store(&hashSlots{s: make([]atomic.Uint64, hashInitialSlots), mask: hashInitialSlots - 1})
		s.pages.Store(new([][]uint64))
	}
	return h
}

// Words returns the key width.
func (h *Hash) Words() int { return h.wpk }

// Lossy returns false: the hash store is exact.
func (h *Hash) Lossy() bool { return false }

// intern resolves one key with hash hv: a lock-free find in its ownership
// shard, and on a miss the locked insert. It adds the occupied slots it
// inspected to *probes and raises *longest. A miss counts only the locked
// re-probe's chain, so no chain is counted twice.
func (h *Hash) intern(key []uint64, hv uint64, probes, longest *int64) (int32, bool, error) {
	// Shard by the HIGH hash bits: the shard index probes from the low
	// bits, so taking ownership from them too would leave every key in a
	// shard sharing its low bits and collapse the home slots to every
	// 64th position (measured ~3x slower interning).
	owner := int32(hv >> (64 - shardBits))
	s := &h.shards[owner]
	_, v, chain := s.probe(s.slots.Load(), key, hv, h.wpk)
	local, fresh := slotLocal(v), false
	if v == 0 {
		// The lock-free miss may be false (an insert or a rehash raced
		// it); insert re-probes the current slot array under the lock.
		var err error
		s.mu.Lock()
		local, fresh, chain, err = s.insert(key, hv, h.wpk)
		s.mu.Unlock()
		if err != nil {
			return 0, false, err
		}
	}
	*probes += chain
	*longest = max(*longest, chain)
	return local<<shardBits | owner, fresh, nil
}

// countProbes adds one call's probe telemetry to the store.
func (h *Hash) countProbes(probes, longest int64) {
	if probes > 0 {
		h.probes.Add(probes)
	}
	for {
		m := h.maxProbe.Load()
		if longest <= m || h.maxProbe.CompareAndSwap(m, longest) {
			return
		}
	}
}

// Intern adds key to its ownership shard.
func (h *Hash) Intern(key []uint64) (int32, bool, error) {
	var probes, longest int64
	id, fresh, err := h.intern(key, enc.Hash(key), &probes, &longest)
	h.countProbes(probes, longest)
	return id, fresh, err
}

// internWindow is how many keys InternBatch looks up ahead of resolving
// them: the home-slot loads of one window are in flight together.
const internWindow = 64

// InternBatch interns len(ids) keys stored back to back in block, in
// windows of internWindow keys and two phases per window. Phase one hashes
// each key and loads its home slot; nothing in that loop branches on a
// loaded value, so the cache misses of a window overlap instead of being
// taken one after another. Phase two settles every key found in its home
// slot (tag and key match) with one key comparison, and hands every other
// key — empty or displaced home slot, tag or key mismatch — to intern with
// the hash already computed, which probes without a lock and locks only
// its own shard for an insert. The probe telemetry reaches the shared
// counters once per batch.
//
// IDs, freshness and probe counts match what per-key Intern calls would
// produce. A slot loaded before an earlier key of the window was inserted
// can only miss (slots only gain entries), sending its key down the
// per-key path; and a key in its home slot of a slot array that a rehash
// has since replaced is in its home slot of the new array too, where the
// per-key path would also walk no chain: growth doubles the array and
// refills it in ID order, the order the keys were inserted in, and a
// slot occupied in the doubled array is then occupied in the old one at
// the same index modulo its size, so no key's displacement grows.
func (h *Hash) InternBatch(block []uint64, ids []int32, fresh []bool) error {
	var (
		probes, longest int64
		err             error
		hv, home        [internWindow]uint64
	)
	w := h.wpk
	for lo := 0; lo < len(ids) && err == nil; lo += internWindow {
		n := min(internWindow, len(ids)-lo)
		for j := 0; j < n; j++ {
			x := enc.Hash(block[(lo+j)*w : (lo+j+1)*w])
			t := h.shards[x>>(64-shardBits)].slots.Load()
			hv[j], home[j] = x, t.s[x&t.mask].Load()
		}
		for j := 0; j < n; j++ {
			i, x, v := lo+j, hv[j], home[j]
			key := block[i*w : (i+1)*w]
			owner := int32(x >> (64 - shardBits))
			if v != 0 && v&^slotIDMask == x&^slotIDMask && keysEqual(h.shards[owner].key(slotLocal(v), w), key) {
				ids[i], fresh[i] = slotLocal(v)<<shardBits|owner, false
				continue
			}
			if ids[i], fresh[i], err = h.intern(key, x, &probes, &longest); err != nil {
				break
			}
		}
	}
	h.countProbes(probes, longest)
	return err
}

// Len returns the number of interned states.
func (h *Hash) Len() int {
	n := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		n += s.count
		s.mu.Unlock()
	}
	return n
}

// Compact lays the shard ranges out back to back.
func (h *Hash) Compact() int {
	h.base = make([]int32, len(h.shards)+1)
	total := 0
	for s := range h.shards {
		h.base[s] = int32(total)
		total += h.shards[s].count
	}
	h.base[len(h.shards)] = int32(total)
	return total
}

// Rank returns id's dense index (its shard base plus local index).
func (h *Hash) Rank(id int32) int32 {
	return h.base[id&(1<<shardBits-1)] + id>>shardBits
}

// Stats sums the shards' occupancy under their locks and adds the probe
// counters (snapshot-time only; never on the intern hot path). Every
// occupied slot a probe passes is both a probe and a collision.
func (h *Hash) Stats() StoreStats {
	st := StoreStats{Kind: "hash"}
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		st.States += int64(s.count)
		slots := int64(len(s.slots.Load().s))
		st.Capacity += slots
		st.Bytes += slots*8 + int64(len(*s.pages.Load()))*int64(h.wpk)<<pageShift*8
		s.mu.Unlock()
	}
	st.Probes = h.probes.Load()
	st.Collisions = st.Probes
	st.MaxProbe = h.maxProbe.Load()
	return st
}

// WordsAt returns a page view of the rank-th state (safe once Compact has
// frozen the store; buf is unused).
func (h *Hash) WordsAt(rank int32, _ []uint64) []uint64 {
	lo, hi := 0, len(h.shards)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if h.base[mid] <= rank {
			lo = mid
		} else {
			hi = mid
		}
	}
	return h.shards[lo].key(rank-h.base[lo], h.wpk)
}

// keysEqual reports whether two keys of the same width are equal.
func keysEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
