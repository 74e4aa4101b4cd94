package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint metric names (registered when checkpointing is enabled).
const (
	// MetricCheckpoints counts checkpoints written.
	MetricCheckpoints = "explore/checkpoints"
	// MetricCheckpointNs times checkpoint writes (pause to manifest flip).
	MetricCheckpointNs = "explore/checkpoint_ns"
	// MetricCheckpointBytes is the byte size of the last checkpoint
	// (bit array + frontier chunks + manifest).
	MetricCheckpointBytes = "explore/checkpoint_bytes"
)

// manifestName is the checkpoint manifest file inside the checkpoint
// directory. The manifest is the atomic commit point: it is written to a
// temp file, fsynced, and renamed over the previous manifest, so the
// directory always holds either the old checkpoint or the new one.
const manifestName = "manifest.json"

// ManifestChunk is one frontier chunk referenced by a checkpoint: a file
// of Entries packed (depth, key) records in the checkpoint directory (the
// frontier's entry layout with the always-0 bitstate ID).
type ManifestChunk struct {
	File    string `json:"file"`
	Entries int64  `json:"entries"`
}

// Manifest is a checkpoint's metadata: everything needed to resume an
// interrupted bitstate exploration to the identical verdict.
// The visited bit array lives in BitsFile; the pending frontier is the
// concatenation of Chunks in order (oldest entries first, preserving BFS
// depth order); counters restore the engine's progress accounting; Extra
// is an opaque payload round-tripped for the caller (verify stores its
// best violation witness there so a witness found before the checkpoint
// survives a kill).
type Manifest struct {
	// Version is the manifest format version (currently 1).
	Version int `json:"version"`
	// Tag fingerprints the run configuration (protocol, sizes, store
	// parameters). Resume refuses a manifest whose tag differs from the
	// current run's, since mixing configurations would corrupt the search.
	Tag string `json:"tag"`
	// WordsPerKey, Log2Bits and K pin the store geometry.
	WordsPerKey int `json:"words_per_key"`
	Log2Bits    int `json:"log2_bits"`
	K           int `json:"k"`
	// States and Expanded restore the engine's cumulative counters.
	States   int64 `json:"states"`
	Expanded int64 `json:"expanded"`
	// DepthCounts restores the per-depth discovery counts.
	DepthCounts []int64 `json:"depth_counts"`
	// BitsFile is the visited bit array (little-endian uint64 words).
	BitsFile string `json:"bits_file"`
	// Chunks is the pending frontier, in pop order.
	Chunks []ManifestChunk `json:"chunks"`
	// Seq is the next chunk sequence number (resume continues numbering
	// so new chunks never collide with retained ones).
	Seq int `json:"seq"`
	// Extra is the caller's opaque checkpoint payload (Config.CheckpointExtra).
	Extra []byte `json:"extra,omitempty"`
}

// LoadManifest reads the checkpoint manifest in dir. os.IsNotExist-style
// errors mean no checkpoint has been written yet.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("explore: checkpoint manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("explore: checkpoint manifest version %d not supported", m.Version)
	}
	return &m, nil
}

// writeCheckpoint captures a consistent cut of a bitstate run: it pauses
// the frontier (waiting out in-flight expansions), writes the bit array
// and the in-memory frontier buffers as fsynced files, atomically flips
// the manifest, and then deletes files only the previous manifest pinned.
// Returns the total bytes written.
func (r *run) writeCheckpoint() (int64, error) {
	q := r.q
	if err := q.pause(); err != nil {
		return 0, err
	}
	defer q.unpause()

	bs := r.cfg.Store.(*Bitstate)
	dir := q.dir
	var bytes int64

	// 1. Visited bit array, under a fresh sequence number so the previous
	// checkpoint's array stays valid until the manifest flips.
	q.mu.Lock()
	bitsName := fmt.Sprintf("bits-%06d.bin", q.seq)
	q.seq++
	q.mu.Unlock()
	words := make([]uint64, bs.Bits()>>6)
	if err := bs.snapshotWords(words); err != nil {
		return 0, err
	}
	if err := writeWordsFile(filepath.Join(dir, bitsName), words); err != nil {
		return 0, fmt.Errorf("explore: checkpoint bits: %w", err)
	}
	bytes += int64(len(words)) * 8

	// 2. Frontier: flush head remainder and tail as chunk files; the live
	// on-disk chunks are reused in place. The in-memory buffers are kept —
	// the flushed copies belong to the checkpoint, not the live queue.
	q.mu.Lock()
	var chunks []ManifestChunk
	if rem := q.head[q.headOff:]; len(rem) > 0 {
		ch, err := q.writeChunkLocked(rem)
		if err != nil {
			q.mu.Unlock()
			return 0, err
		}
		chunks = append(chunks, ManifestChunk{File: ch.file, Entries: ch.entries})
		bytes += int64(len(rem)) * 8
	}
	for _, ch := range q.chunks {
		chunks = append(chunks, ManifestChunk{File: ch.file, Entries: ch.entries})
	}
	if len(q.tail) > 0 {
		ch, err := q.writeChunkLocked(q.tail)
		if err != nil {
			q.mu.Unlock()
			return 0, err
		}
		chunks = append(chunks, ManifestChunk{File: ch.file, Entries: ch.entries})
		bytes += int64(len(q.tail)) * 8
	}
	m := &Manifest{
		Version:     1,
		Tag:         r.cfg.CheckpointTag,
		WordsPerKey: bs.wpk,
		Log2Bits:    bs.log2,
		K:           bs.k,
		States:      r.total.Load(),
		Expanded:    r.expanded.Load(),
		DepthCounts: append([]int64(nil), q.depthCounts...),
		BitsFile:    bitsName,
		Chunks:      chunks,
		Seq:         q.seq,
	}
	q.mu.Unlock()
	if r.cfg.CheckpointExtra != nil {
		m.Extra = r.cfg.CheckpointExtra()
	}

	// 3. Atomic manifest flip.
	raw, err := json.Marshal(m)
	if err != nil {
		return 0, err
	}
	if err := atomicWriteFile(filepath.Join(dir, manifestName), raw); err != nil {
		return 0, fmt.Errorf("explore: checkpoint manifest: %w", err)
	}
	bytes += int64(len(raw))

	// 4. Retire files only the previous manifest referenced: they are no
	// longer needed for crash recovery. Then pin the new reference set so
	// chunk loads know what to retain.
	newPinned := map[string]bool{bitsName: true}
	for _, ch := range chunks {
		newPinned[ch.File] = true
	}
	q.mu.Lock()
	live := map[string]bool{}
	for _, ch := range q.chunks {
		live[ch.file] = true
	}
	for name := range q.pinned {
		if !newPinned[name] && !live[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
	q.pinned = newPinned
	q.mu.Unlock()
	return bytes, nil
}

// restoreFromCheckpoint rebuilds the store and frontier from the manifest
// in the checkpoint directory. The run must be configured identically to
// the checkpointed one (enforced via Tag and the store geometry).
func (r *run) restoreFromCheckpoint() error {
	q := r.q
	m, err := LoadManifest(q.dir)
	if err != nil {
		return fmt.Errorf("explore: resume: %w", err)
	}
	if m.Tag != r.cfg.CheckpointTag {
		return fmt.Errorf("explore: resume: checkpoint tag %q does not match run tag %q", m.Tag, r.cfg.CheckpointTag)
	}
	bs := r.cfg.Store.(*Bitstate)
	if m.WordsPerKey != bs.wpk || m.Log2Bits != bs.log2 || m.K != bs.k {
		return fmt.Errorf("explore: resume: store geometry mismatch (checkpoint wpk=%d log2=%d k=%d, run wpk=%d log2=%d k=%d)",
			m.WordsPerKey, m.Log2Bits, m.K, bs.wpk, bs.log2, bs.k)
	}
	words, err := readWordsFile(filepath.Join(q.dir, m.BitsFile))
	if err != nil {
		return fmt.Errorf("explore: resume bits: %w", err)
	}
	if err := bs.restoreWords(words, m.States); err != nil {
		return fmt.Errorf("explore: resume: %w", err)
	}
	r.total.Store(m.States)
	r.expanded.Store(m.Expanded)

	q.mu.Lock()
	q.depthCounts = append([]int64(nil), m.DepthCounts...)
	q.seq = m.Seq
	q.pinned = map[string]bool{m.BitsFile: true}
	var entries int64
	for _, ch := range m.Chunks {
		q.chunks = append(q.chunks, spillChunk{file: ch.File, entries: ch.Entries})
		q.pinned[ch.File] = true
		entries += ch.Entries
	}
	q.pending = int(entries)
	q.queued = entries
	q.mu.Unlock()

	if m.Extra != nil && r.cfg.RestoreExtra != nil {
		if err := r.cfg.RestoreExtra(m.Extra); err != nil {
			return fmt.Errorf("explore: resume extra: %w", err)
		}
	}
	return nil
}

// atomicWriteFile writes data to path via a temp file, fsync and rename,
// then fsyncs the directory so the rename is durable.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
