package explore

import (
	"stateless/internal/core"
	"stateless/internal/par"
)

// sweepChunk is the number of consecutive labelings one enumeration task
// claims: large enough to amortize the odometer re-seek and scheduling,
// small enough to load-balance uneven per-labeling work.
const sweepChunk = 1 << 12

// ChunkCount returns the number of chunks Labelings will carve Σ^m into:
// chunk indices passed to fn are exactly 0..ChunkCount-1, and fn runs
// sequentially within a chunk, so callers can collect per-chunk results in
// a pre-sized slice without locking.
func ChunkCount(space core.LabelSpace, m int) int {
	total := 1
	for i := 0; i < m; i++ {
		total *= int(space.Size())
	}
	return (total + sweepChunk - 1) / sweepChunk
}

// Labelings enumerates Σ^m across a worker pool: the odometer sequence
// (position 0 varies fastest) is carved into fixed chunks of
// sweepChunk labelings, chunks run concurrently, and fn(chunk, l) is called
// for each labeling — in ascending order within a chunk. fn may be called
// concurrently for different chunks and must not retain l. The error
// returned is that of the lowest failing chunk. The caller must have
// bounded |Σ|^m (it must fit an int).
func Labelings(space core.LabelSpace, m, workers int, fn func(chunk int, l core.Labeling) error) error {
	total := 1
	for i := 0; i < m; i++ {
		total *= int(space.Size())
	}
	chunks := (total + sweepChunk - 1) / sweepChunk
	size := space.Size()
	return par.ForEach(chunks, workers, func(chunk int) error {
		start := chunk * sweepChunk
		end := min(start+sweepChunk, total)
		// Seek the odometer to start: digit i of start in base |Σ|.
		l := make(core.Labeling, m)
		idx := start
		for i := 0; i < m; i++ {
			l[i] = core.Label(uint64(idx) % size)
			idx /= int(size)
		}
		for k := start; k < end; k++ {
			if err := fn(chunk, l); err != nil {
				return err
			}
			for i := 0; i < m; i++ {
				l[i]++
				if uint64(l[i]) < size {
					break
				}
				l[i] = 0
			}
		}
		return nil
	})
}
