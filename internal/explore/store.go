// Package explore is the shared state-space exploration engine behind
// internal/verify's states-graph search and the simulators' cycle
// detection. It provides pluggable visited-state stores over the packed
// encoding of internal/enc:
//
//   - a dense direct-indexed store for narrow states (≤ DenseMaxBits packed
//     bits): the packed value *is* the state ID and the visited set is an
//     atomic-CAS bitset, so interning a state costs one load and one CAS —
//     no hashing, no locks, no arena;
//   - a sharded-hash store for wide states: 2^shardBits mutex-protected
//     intern tables (the engine PR 1 built into internal/verify).
//
// On top of the stores sit a bounded-worker BFS driver (Run), a symmetry
// quotient that canonicalizes states modulo the graph's order-preserving
// automorphisms (Symmetry/Canon), a sequential interner for cycle detection
// (Seen), and a chunked parallel enumerator of Σ^m (Labelings).
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
	// the open-addressing displacement total (always 0 for the dense
	// store, which does no probing).
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
	// lets the store amortize per-key overhead (the hash store takes each
	// shard lock once per batch instead of once per key). Safe for
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

// shardBits fixes the ownership-hash shard count (2^shardBits dedup tables,
// each behind its own mutex); more shards than workers keeps lock
// contention negligible.
const shardBits = 6

const maxLocalID = (1 << (31 - shardBits)) - 1

// hashShard is one dedup table of the sharded-hash store.
type hashShard struct {
	mu  sync.Mutex
	tab *enc.Table
}

// Hash is the sharded-hash store: 2^shardBits mutex-protected enc.Tables.
// IDs encode (local index << shardBits) | shard.
type Hash struct {
	wpk    int
	shards [1 << shardBits]hashShard
	base   []int32
}

// NewHash returns a hash store for keys of wordsPerKey words.
func NewHash(wordsPerKey int) *Hash {
	h := &Hash{wpk: wordsPerKey}
	for i := range h.shards {
		h.shards[i].tab = enc.NewTable(wordsPerKey, 64)
	}
	return h
}

// Words returns the key width.
func (h *Hash) Words() int { return h.wpk }

// Lossy returns false: the hash store is exact.
func (h *Hash) Lossy() bool { return false }

// Intern adds key to its ownership shard.
func (h *Hash) Intern(key []uint64) (int32, bool, error) {
	// Shard by the HIGH hash bits: the shard table probes from the low
	// bits, so taking ownership from them too would leave every key in a
	// shard sharing its low bits and collapse the home slots to every
	// 64th position (measured ~3x slower interning).
	owner := enc.Hash(key) >> (64 - shardBits)
	s := &h.shards[owner]
	s.mu.Lock()
	local, fresh := s.tab.Intern(key)
	s.mu.Unlock()
	if local > maxLocalID {
		return 0, false, fmt.Errorf("%w: shard overflow", ErrLimit)
	}
	return int32(local)<<shardBits | int32(owner), fresh, nil
}

// InternBatch interns len(ids) keys stored back to back in block, in one
// fused pass: each key hashes once (the hash is passed through to the
// shard table — hashing twice was the regression that made batched
// interning slower than per-key Intern calls), and the shard lock is
// carried across consecutive keys landing in the same shard. A bucketing
// pre-pass (group key indices by shard, lock each shard exactly once)
// measures slower at engine batch sizes: with ≤64 successors scattered
// over 2^shardBits shards nearly every bucket is a singleton, so
// pre-bucketing saves almost no lock acquisitions and pays for a second
// sweep over the keys' cache lines. IDs and freshness match what per-key
// Intern calls would produce.
func (h *Hash) InternBatch(block []uint64, ids []int32, fresh []bool) error {
	var (
		err   error
		owner int32 = -1
		s     *hashShard
	)
	for i := range ids {
		key := block[i*h.wpk : (i+1)*h.wpk]
		hv := enc.Hash(key)
		o := int32(hv >> (64 - shardBits))
		if o != owner {
			if s != nil {
				s.mu.Unlock()
			}
			s = &h.shards[o]
			s.mu.Lock()
			owner = o
		}
		local, fr := s.tab.InternHashed(key, hv)
		if local > maxLocalID {
			err = fmt.Errorf("%w: shard overflow", ErrLimit)
			break
		}
		ids[i] = int32(local)<<shardBits | o
		fresh[i] = fr
	}
	if s != nil {
		s.mu.Unlock()
	}
	return err
}

// Len returns the number of interned states.
func (h *Hash) Len() int {
	n := 0
	for i := range h.shards {
		h.shards[i].mu.Lock()
		n += h.shards[i].tab.Len()
		h.shards[i].mu.Unlock()
	}
	return n
}

// Compact lays the shard ranges out back to back.
func (h *Hash) Compact() int {
	h.base = make([]int32, len(h.shards)+1)
	total := 0
	for s := range h.shards {
		h.base[s] = int32(total)
		total += h.shards[s].tab.Len()
	}
	h.base[len(h.shards)] = int32(total)
	return total
}

// Rank returns id's dense index (its shard base plus local index).
func (h *Hash) Rank(id int32) int32 {
	return h.base[id&(1<<shardBits-1)] + id>>shardBits
}

// Stats sums the shard tables' occupancy and probe counters under their
// locks (snapshot-time only; never on the intern hot path).
func (h *Hash) Stats() StoreStats {
	st := StoreStats{Kind: "hash"}
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		ts := s.tab.Stats()
		s.mu.Unlock()
		st.States += int64(ts.States)
		st.Capacity += int64(ts.Slots)
		st.Bytes += ts.Bytes
		st.Probes += ts.Probes
		st.Collisions += ts.Probes // every extra probe step is a collision
		if ts.MaxProbe > st.MaxProbe {
			st.MaxProbe = ts.MaxProbe
		}
	}
	return st
}

// WordsAt returns an arena view of the rank-th state (safe once Compact has
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
	return h.shards[lo].tab.At(int(rank - h.base[lo]))
}
