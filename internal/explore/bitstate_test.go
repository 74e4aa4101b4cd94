package explore

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBitstateInternFreshness(t *testing.T) {
	b := NewBitstate(1, 20, 3)
	if !b.Lossy() {
		t.Fatal("bitstate must report Lossy() = true")
	}
	if b.Bits() != 1<<20 {
		t.Fatalf("Bits = %d, want %d", b.Bits(), 1<<20)
	}
	if b.K() != 3 {
		t.Fatalf("K = %d, want 3", b.K())
	}
	id, fresh, err := b.Intern([]uint64{42})
	if err != nil || !fresh {
		t.Fatalf("first Intern: id=%d fresh=%v err=%v", id, fresh, err)
	}
	if id != 0 {
		t.Fatalf("bitstate IDs must be 0, got %d", id)
	}
	_, fresh, err = b.Intern([]uint64{42})
	if err != nil || fresh {
		t.Fatalf("duplicate Intern: fresh=%v err=%v, want fresh=false", fresh, err)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	if got := b.SetBits(); got < 1 || got > 3 {
		t.Fatalf("SetBits = %d, want 1..3", got)
	}
	if b.Compact() != 1 {
		t.Fatalf("Compact = %d, want 1", b.Compact())
	}
	st := b.Stats()
	if st.Kind != "bitstate" || st.States != 1 || st.Capacity != 1<<20 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestBitstateInternBatch(t *testing.T) {
	b := NewBitstate(2, 20, 3)
	// Three distinct keys, with the middle one repeated.
	block := []uint64{1, 2, 3, 4, 1, 2, 5, 6}
	ids := make([]int32, 4)
	fresh := make([]bool, 4)
	if err := b.InternBatch(block, ids, fresh); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("fresh[%d] = %v, want %v", i, fresh[i], want[i])
		}
		if ids[i] != 0 {
			t.Fatalf("ids[%d] = %d, want 0", i, ids[i])
		}
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if got, max := b.SetBits(), int64(3*3); got > max {
		t.Fatalf("SetBits = %d, want ≤ k·states = %d", got, max)
	}
}

func TestBitstateLossyAccessorsPanic(t *testing.T) {
	b := NewBitstate(1, 10, 2)
	b.Intern([]uint64{7})
	for name, call := range map[string]func(){
		"Rank":    func() { b.Rank(0) },
		"WordsAt": func() { b.WordsAt(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a lossy store must panic", name)
				}
			}()
			call()
		}()
	}
}

func TestBitstateNeverInventsStates(t *testing.T) {
	// On a deliberately saturated tiny array (64 bits, k=3), duplicates must
	// still never be reported fresh: a lossy store under-approximates the
	// frontier, it cannot invent states. This is the store half of the
	// no-false-violation guarantee (the verify half is tested in
	// internal/verify).
	b := NewBitstate(1, minBitstateLog2, 3)
	rng := rand.New(rand.NewPCG(1, 2))
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		k := rng.Uint64N(256)
		_, fresh, err := b.Intern([]uint64{k})
		if err != nil {
			t.Fatal(err)
		}
		if fresh && seen[k] {
			t.Fatalf("key %d reported fresh twice", k)
		}
		seen[k] = true
	}
	if int(b.states.Load()) > len(seen) {
		t.Fatalf("admitted %d states from %d distinct keys", b.states.Load(), len(seen))
	}
	if sat := b.SaturationPPM(); sat == 0 {
		t.Fatal("tiny array did not saturate at all; test is vacuous")
	}
	if hf := b.HashFactor(); hf <= 0 {
		t.Fatalf("HashFactor = %v, want > 0", hf)
	}
}

func TestBitstateSnapshotRestore(t *testing.T) {
	b := NewBitstate(1, 12, 3)
	for i := uint64(0); i < 100; i++ {
		b.Intern([]uint64{i * 7919})
	}
	words := make([]uint64, b.Bits()>>6)
	if err := b.snapshotWords(words); err != nil {
		t.Fatal(err)
	}
	setBits, states := b.SetBits(), int64(b.Len())

	fresh := NewBitstate(1, 12, 3)
	if err := fresh.restoreWords(words, states); err != nil {
		t.Fatal(err)
	}
	if fresh.SetBits() != setBits || int64(fresh.Len()) != states {
		t.Fatalf("restored SetBits=%d Len=%d, want %d/%d", fresh.SetBits(), fresh.Len(), setBits, states)
	}
	// Every key interned before the snapshot must read back as visited.
	for i := uint64(0); i < 100; i++ {
		if _, wasFresh, _ := fresh.Intern([]uint64{i * 7919}); wasFresh {
			t.Fatalf("key %d fresh after restore", i*7919)
		}
	}
	if err := fresh.restoreWords(words[:1], states); err == nil {
		t.Fatal("restoreWords accepted a wrong-sized snapshot")
	}
}

func TestBitstateClamping(t *testing.T) {
	// Lower clamps only: the upper log2 clamp (40) would allocate 128 GiB.
	b := NewBitstate(1, 0, 0)
	if b.log2 != minBitstateLog2 || b.k != 1 {
		t.Fatalf("clamped to log2=%d k=%d, want %d/1", b.log2, b.k, minBitstateLog2)
	}
	if b := NewBitstate(1, 8, 99); b.k != 8 {
		t.Fatalf("k clamped to %d, want 8", b.k)
	}
}

func TestKeyQueueSpillFIFO(t *testing.T) {
	// A budget small enough to force several spills must preserve global
	// FIFO order (head → chunks in write order → tail) and round-trip each
	// entry's store ID and depth through the chunk files.
	dir := t.TempDir()
	const wpk, n = 2, 500
	// stride = 3 words; budget of 30 words spills the tail at ≥ 15 words
	// (5 entries per chunk).
	q, err := newKeyQueue(wpk, 30*8, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := q.push([]uint64{i, i * 3}, int32(i), int32(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	chunks, bytes, _ := q.spillStats()
	if chunks == 0 || bytes == 0 {
		t.Fatalf("tiny budget wrote no chunks (chunks=%d bytes=%d)", chunks, bytes)
	}
	if q.depth() != n {
		t.Fatalf("depth = %d, want %d", q.depth(), n)
	}

	keys := make([]uint64, popBlockSize*wpk)
	ids := make([]int32, popBlockSize)
	depths := make([]int32, popBlockSize)
	var next uint64
	for next < n {
		got := q.popBlock(keys, ids, depths)
		if got == 0 {
			t.Fatalf("popBlock drained at %d/%d", next, n)
		}
		for i := 0; i < got; i++ {
			k := keys[i*wpk : (i+1)*wpk]
			if k[0] != next || k[1] != next*3 || ids[i] != int32(next) || depths[i] != int32(next%7) {
				t.Fatalf("entry %d popped as key=%v id=%d depth=%d", next, k, ids[i], depths[i])
			}
			next++
		}
		q.doneN(got)
	}
	if _, _, loads := q.spillStats(); loads == 0 {
		t.Fatal("draining never streamed a chunk back")
	}
	if got := q.popBlock(keys, ids, depths); got != 0 {
		t.Fatalf("popBlock after drain = %d, want 0", got)
	}
	q.cleanup()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("leftover spill file %s", e.Name())
	}
}

func TestKeyQueueBudgetWithoutDir(t *testing.T) {
	if _, err := newKeyQueue(1, 1<<20, ""); err == nil {
		t.Fatal("memory budget without a spill dir must be rejected")
	}
}

func TestWordsFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "words.bin")
	words := []uint64{0, 1, ^uint64(0), 0xdeadbeef}
	if err := writeWordsFile(path, words); err != nil {
		t.Fatal(err)
	}
	got, err := readWordsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(words) {
		t.Fatalf("read %d words, want %d", len(got), len(words))
	}
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], words[i])
		}
	}
	// Truncated files are rejected, not silently misparsed.
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readWordsFile(path); err == nil {
		t.Fatal("readWordsFile accepted a non-word-aligned file")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		Version:     1,
		Tag:         "test|v1",
		WordsPerKey: 2,
		Log2Bits:    20,
		K:           3,
		States:      100,
		Expanded:    90,
		DepthCounts: []int64{1, 10, 89},
		BitsFile:    "bits-000000.bin",
		Chunks:      []ManifestChunk{{File: "chunk-000001.bin", Entries: 5}},
		Seq:         2,
		Extra:       []byte{1, 2, 3},
	}
	raw, err := jsonMarshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(filepath.Join(dir, manifestName), raw); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != m.Tag || got.States != m.States || got.Seq != m.Seq ||
		len(got.Chunks) != 1 || got.Chunks[0].Entries != 5 || string(got.Extra) != string(m.Extra) {
		t.Fatalf("manifest round trip: %+v", got)
	}
	// Unsupported versions are refused.
	m.Version = 2
	raw, _ = jsonMarshal(m)
	atomicWriteFile(filepath.Join(dir, manifestName), raw)
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("LoadManifest accepted version 2")
	}
	// A missing manifest is a distinguishable not-exist error.
	if _, err := LoadManifest(t.TempDir()); !os.IsNotExist(err) {
		t.Fatalf("missing manifest error = %v, want not-exist", err)
	}
}

// TestResumeRejectsCorruptChunkEntries resumes from a checkpoint whose
// single frontier chunk holds an out-of-range entry head word. The run
// must fail with an error naming the chunk file: unchecked, a negative
// depth indexes the depth counts out of range in a worker (a panic) and a
// huge positive one grows them without bound.
func TestResumeRejectsCorruptChunkEntries(t *testing.T) {
	for name, head := range map[string]uint64{
		"negative depth":    1 << 31,
		"depth past counts": 1 << 30,
		"negative id":       1 << 63,
	} {
		dir := t.TempDir()
		bs := NewBitstate(1, 10, 2)
		if err := writeWordsFile(filepath.Join(dir, "bits-000000.bin"), make([]uint64, bs.Bits()>>6)); err != nil {
			t.Fatal(err)
		}
		if err := writeWordsFile(filepath.Join(dir, "chunk-000001.bin"), []uint64{head, 5}); err != nil {
			t.Fatal(err)
		}
		raw, err := jsonMarshal(&Manifest{
			Version: 1, Tag: "corrupt", WordsPerKey: 1, Log2Bits: 10, K: 2,
			States: 1, DepthCounts: []int64{1}, BitsFile: "bits-000000.bin",
			Chunks: []ManifestChunk{{File: "chunk-000001.bin", Entries: 1}}, Seq: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := atomicWriteFile(filepath.Join(dir, manifestName), raw); err != nil {
			t.Fatal(err)
		}
		err = Run(Config{
			Store: bs, Workers: 1, CheckpointDir: dir, CheckpointTag: "corrupt", Resume: true,
			NewExpander: func(int) Expander {
				return &countingExpander{n: 16, mu: &sync.Mutex{}, expanded: map[uint64]int{}}
			},
		})
		if err == nil || !strings.Contains(err.Error(), "chunk-000001.bin") {
			t.Fatalf("%s: resume error = %v, want one naming chunk-000001.bin", name, err)
		}
	}
}

func TestHashStoreProbesBoundedUnderGrowth(t *testing.T) {
	// Interning far past the initial capacity (NewHash seeds each shard with
	// a 64-key hint, i.e. 128-slot tables) must keep the longest probe chain
	// bounded by the early-rehash threshold: shards grow before chains
	// degrade, rather than only at the load-factor limit.
	h := NewHash(2)
	initialCap := h.Stats().Capacity
	rng := rand.New(rand.NewPCG(3, 4))
	n := int(initialCap) * 4
	for i := 0; i < n; i++ {
		if _, _, err := h.Intern([]uint64{rng.Uint64(), rng.Uint64()}); err != nil {
			t.Fatal(err)
		}
	}
	st := h.Stats()
	if st.States == 0 || st.Capacity <= initialCap {
		t.Fatalf("store did not grow: %+v (initial capacity %d)", st, initialCap)
	}
	// probeLimit (64) triggers a rehash before the chain gets longer; the
	// insertion that trips it may walk a handful more slots before growing.
	const bound = 2 * 64
	if st.MaxProbe > bound {
		t.Fatalf("MaxProbe = %d after %d inserts (capacity %d), want ≤ %d",
			st.MaxProbe, n, st.Capacity, bound)
	}
	// And the batch path tracks the same statistic.
	h2 := NewHash(1)
	block := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		block = append(block, rng.Uint64())
	}
	ids := make([]int32, n)
	fresh := make([]bool, n)
	if err := h2.InternBatch(block, ids, fresh); err != nil {
		t.Fatal(err)
	}
	if st2 := h2.Stats(); st2.MaxProbe == 0 || st2.MaxProbe > bound {
		t.Fatalf("batch MaxProbe = %d, want 1..%d", st2.MaxProbe, bound)
	}
}

func TestBitstateHashDispersion(t *testing.T) {
	// Sequential keys (the worst realistic input: packed ring states differ
	// in few low bits) must disperse: saturation of a comfortably sized
	// array should stay near the ideal k·n/bits.
	b := NewBitstate(1, 20, 3)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		b.Intern([]uint64{i})
	}
	if b.Len() < n*99/100 {
		t.Fatalf("admitted %d of %d sequential keys; excessive collisions", b.Len(), n)
	}
	// With 3·10000 bit insertions into 2^20 bits, near-zero overlap is
	// expected: ≥ 29k distinct bits set.
	if b.SetBits() < 29000 {
		t.Fatalf("SetBits = %d, want ≥ 29000 (poor dispersion)", b.SetBits())
	}
}

// jsonMarshal isolates the test's manifest encoding from the checkpoint
// writer's (which is exercised end to end in internal/verify).
func jsonMarshal(m *Manifest) ([]byte, error) { return json.Marshal(m) }

// TestBitstateConcurrentSingleAdmission races workers interning the same
// keys: each key must be admitted exactly once (one fresh answer in
// total), never once per worker that set one of its bits.
func TestBitstateConcurrentSingleAdmission(t *testing.T) {
	const keys, workers = 20000, 4
	b := NewBitstate(1, 26, 3) // hash factor ~3400: a collision is a ~1e-5 event
	var fresh atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); k < keys; k++ {
				if _, f, _ := b.Intern([]uint64{k}); f {
					fresh.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := fresh.Load(); got != keys || b.Len() != keys {
		t.Fatalf("%d fresh answers, Len %d; want %d each", got, b.Len(), keys)
	}
}
