package explore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Frontier/spill metric names (see Config.Metrics).
const (
	// MetricFrontierMemBytes is the frontier's current in-memory footprint.
	MetricFrontierMemBytes = "explore/frontier_mem_bytes"
	// MetricSpillChunks counts frontier chunks written to disk.
	MetricSpillChunks = "explore/spill_chunks"
	// MetricSpillBytes counts bytes of frontier written to disk.
	MetricSpillBytes = "explore/spill_bytes"
	// MetricSpillLoads counts chunks streamed back from disk.
	MetricSpillLoads = "explore/spill_loads"
)

// spillChunk is one on-disk frontier chunk: entries·stride uint64 words,
// little-endian, oldest entries first.
type spillChunk struct {
	file    string
	entries int64
}

// keyQueue is the frontier: a multi-producer multi-consumer FIFO of
// (id, depth, packed key) entries with distributed-termination accounting
// (pending counts states discovered but not yet fully expanded; when it
// hits zero the exploration is complete and all poppers drain out), the
// per-depth discovery counts, and two further capabilities:
//
//   - Disk spilling. Entries live in two in-memory buffers — workers pop
//     from the front of head and push to the back of tail. When tail
//     exceeds half the memory budget it is flushed to a sequential chunk
//     file; when head drains, the oldest chunk is streamed back in (or, with
//     no chunks, head and tail swap). Pop order is therefore head → chunks
//     in write order → tail: global FIFO, so states stream back in depth
//     order and BFS depth accounting is unchanged by spilling.
//
//   - Pause barriers for checkpointing. pause() blocks poppers and waits
//     until every claimed entry has been settled with doneN, so the visited
//     set and the frontier are captured at a consistent cut (no state is
//     mid-expansion with successors interned but not yet enqueued).
//
// Entries are stride = wordsPerKey+1 words: a head word packing the store
// ID and the discovery depth (see entryHead) followed by the packed key.
// A lossy store's IDs are always 0, so its head word is the bare depth.
// Chunk I/O runs under the queue lock — a flush or load briefly blocks
// other workers, which is acceptable because chunks are budget/2-sized
// (milliseconds of sequential I/O amortized over millions of pushes).
type keyQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	wpk         int
	stride      int
	budgetWords int // spill tail beyond budgetWords/2 in-memory words (0 = never)
	dir         string

	head    []uint64
	headOff int // word offset of the next unclaimed entry in head
	tail    []uint64
	chunks  []spillChunk    // on-disk entries, FIFO between head and tail
	pinned  map[string]bool // chunk files referenced by the last manifest write
	seq     int             // next chunk file sequence number

	depthCounts []int64
	pending     int   // entries discovered but not yet settled by doneN
	queued      int64 // entries currently in head+chunks+tail
	paused      bool
	err         error

	// cumulative spill telemetry (guarded by mu)
	spillChunks, spillBytes, spillLoads int64
}

// newKeyQueue builds the frontier. dir may be empty when neither
// spilling nor checkpointing is enabled; memBytes ≤ 0 disables spilling.
func newKeyQueue(wpk int, memBytes int64, dir string) (*keyQueue, error) {
	q := &keyQueue{
		wpk:    wpk,
		stride: wpk + 1,
		dir:    dir,
		pinned: map[string]bool{},
	}
	q.cond = sync.NewCond(&q.mu)
	if memBytes > 0 {
		if dir == "" {
			return nil, fmt.Errorf("explore: frontier memory budget set without a spill directory")
		}
		q.budgetWords = int(memBytes / 8)
		if q.budgetWords < 2*q.stride {
			q.budgetWords = 2 * q.stride
		}
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("explore: spill dir: %w", err)
		}
	}
	return q, nil
}

// entryHead packs a frontier entry's head word: the store ID in the high
// 32 bits, the discovery depth in the low 32.
func entryHead(id, depth int32) uint64 {
	return uint64(uint32(id))<<32 | uint64(uint32(depth))
}

// splitHead unpacks an entryHead word.
func splitHead(w uint64) (id, depth int32) {
	return int32(w >> 32), int32(uint32(w))
}

// countAtDepth charges n discoveries to depth d. Caller holds q.mu.
func (q *keyQueue) countAtDepth(d int32, n int64) {
	for len(q.depthCounts) <= int(d) {
		q.depthCounts = append(q.depthCounts, 0)
	}
	q.depthCounts[d] += n
}

// push enqueues one key with its store ID at the given depth (the seeding
// path).
func (q *keyQueue) push(key []uint64, id, depth int32) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	q.tail = append(q.tail, entryHead(id, depth))
	q.tail = append(q.tail, key...)
	q.countAtDepth(depth, 1)
	q.pending++
	q.queued++
	err := q.maybeSpillLocked()
	q.cond.Signal()
	return err
}

// pushFresh enqueues block's i-th key with ids[i] for every fresh[i] at
// depth d under one lock acquisition — the batch counterpart of push.
func (q *keyQueue) pushFresh(block []uint64, ids []int32, fresh []bool, d int32, freshCount int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	for i := range fresh {
		if fresh[i] {
			q.tail = append(q.tail, entryHead(ids[i], d))
			q.tail = append(q.tail, block[i*q.wpk:(i+1)*q.wpk]...)
		}
	}
	q.countAtDepth(d, int64(freshCount))
	q.pending += freshCount
	q.queued += int64(freshCount)
	err := q.maybeSpillLocked()
	q.cond.Broadcast()
	return err
}

// maybeSpillLocked flushes the tail buffer to a chunk file once it exceeds
// half the memory budget (head gets the other half). Caller holds q.mu.
func (q *keyQueue) maybeSpillLocked() error {
	if q.budgetWords <= 0 || len(q.tail) < q.budgetWords/2 {
		return nil
	}
	ch, err := q.writeChunkLocked(q.tail)
	if err != nil {
		q.err = err
		q.cond.Broadcast()
		return err
	}
	q.chunks = append(q.chunks, ch)
	q.tail = q.tail[:0]
	return nil
}

// writeChunkLocked writes buf (whole entries) as the next sequential chunk
// file and fsyncs it, so a later manifest may reference it durably.
func (q *keyQueue) writeChunkLocked(buf []uint64) (spillChunk, error) {
	name := fmt.Sprintf("chunk-%06d.bin", q.seq)
	q.seq++
	path := filepath.Join(q.dir, name)
	if err := writeWordsFile(path, buf); err != nil {
		return spillChunk{}, fmt.Errorf("explore: spill chunk: %w", err)
	}
	q.spillChunks++
	q.spillBytes += int64(len(buf)) * 8
	return spillChunk{file: name, entries: int64(len(buf) / q.stride)}, nil
}

// loadChunkLocked streams the oldest chunk into head and removes it from
// the live list, deleting the file unless a manifest still references it.
// Every entry is validated before it can reach a worker: a corrupt chunk
// (for instance a damaged checkpoint) fails the run with an error naming
// the file instead of indexing the depth counts out of range.
func (q *keyQueue) loadChunkLocked() error {
	ch := q.chunks[0]
	q.chunks = q.chunks[1:]
	path := filepath.Join(q.dir, ch.file)
	words, err := readWordsFile(path)
	if err == nil {
		err = q.checkChunk(ch, words)
	}
	if err != nil {
		q.err = fmt.Errorf("explore: spill load: %w", err)
		q.cond.Broadcast()
		return q.err
	}
	q.head = words
	q.headOff = 0
	q.spillLoads++
	if !q.pinned[ch.file] {
		os.Remove(path)
	}
	return nil
}

// checkChunk validates a loaded chunk's size and every entry's head word:
// the depth must already be charged in depthCounts and the ID must be
// non-negative. Caller holds q.mu.
func (q *keyQueue) checkChunk(ch spillChunk, words []uint64) error {
	if int64(len(words)) != ch.entries*int64(q.stride) {
		return fmt.Errorf("%s has %d words, want %d", ch.file, len(words), ch.entries*int64(q.stride))
	}
	for i := 0; i < len(words); i += q.stride {
		id, depth := splitHead(words[i])
		if depth < 0 || int(depth) >= len(q.depthCounts) || id < 0 {
			return fmt.Errorf("%s entry %d: id %d depth %d out of range (%d depths)", ch.file, i/q.stride, id, depth, len(q.depthCounts))
		}
	}
	return nil
}

// popBlock claims up to len(depths) entries, copying keys back to back
// into keys (len(depths)·wpk words) and ids[i], depths[i] for each. Blocks
// until work arrives, the exploration completes, or a worker fails;
// returns the number claimed (0 means drain out). Claimed entries stay
// counted in pending until settled with doneN.
func (q *keyQueue) popBlock(keys []uint64, ids, depths []int32) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil {
			return 0
		}
		if q.paused {
			q.cond.Wait()
			continue
		}
		if q.headOff < len(q.head) {
			break
		}
		if len(q.chunks) > 0 {
			if q.loadChunkLocked() != nil {
				return 0
			}
			continue
		}
		if len(q.tail) > 0 {
			q.head, q.tail = q.tail, q.head[:0]
			q.headOff = 0
			break
		}
		if q.pending == 0 {
			return 0
		}
		q.cond.Wait()
	}
	avail := (len(q.head) - q.headOff) / q.stride
	n := min(len(depths), avail)
	for i := 0; i < n; i++ {
		e := q.head[q.headOff : q.headOff+q.stride]
		ids[i], depths[i] = splitHead(e[0])
		copy(keys[i*q.wpk:(i+1)*q.wpk], e[1:])
		q.headOff += q.stride
	}
	q.queued -= int64(n)
	return n
}

// doneN settles n claimed entries' termination accounting.
func (q *keyQueue) doneN(n int) {
	q.mu.Lock()
	q.pending -= n
	if q.pending == 0 || (q.paused && int64(q.pending) == q.queued) {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

func (q *keyQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *keyQueue) failure() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// depth returns the number of queued (not yet claimed) entries.
func (q *keyQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.queued)
}

// maxDepth returns the deepest discovery depth charged so far.
func (q *keyQueue) maxDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return max(0, len(q.depthCounts)-1)
}

// depthCountsCopy returns a copy of the per-depth discovery counts.
func (q *keyQueue) depthCountsCopy() []int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]int64(nil), q.depthCounts...)
}

// memBytes returns the frontier's current in-memory footprint.
func (q *keyQueue) memBytes() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(len(q.head)-q.headOff+len(q.tail)) * 8
}

// spillStats returns cumulative (chunks written, bytes written, loads).
func (q *keyQueue) spillStats() (chunks, bytes, loads int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.spillChunks, q.spillBytes, q.spillLoads
}

// pause blocks poppers and waits until every claimed entry is settled
// (queued == pending), i.e. no worker is mid-expansion. Returns the queue
// error if the run failed while waiting. Callers must unpause().
func (q *keyQueue) pause() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.paused = true
	for q.err == nil && int64(q.pending) != q.queued {
		q.cond.Wait()
	}
	return q.err
}

// unpause releases a pause barrier.
func (q *keyQueue) unpause() {
	q.mu.Lock()
	q.paused = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// cleanup removes live chunk files not referenced by a manifest. Called
// after the run drains (success leaves no live chunks; failures may).
func (q *keyQueue) cleanup() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, ch := range q.chunks {
		if !q.pinned[ch.file] {
			os.Remove(filepath.Join(q.dir, ch.file))
		}
	}
}

// writeWordsFile writes words as little-endian uint64s and fsyncs.
func writeWordsFile(path string, words []uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 1<<16)
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
		if len(buf) == cap(buf) {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readWordsFile reads a little-endian uint64 file written by
// writeWordsFile.
func readWordsFile(path string) ([]uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("%s: %d bytes is not a whole word count", path, len(raw))
	}
	words := make([]uint64, len(raw)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return words, nil
}
