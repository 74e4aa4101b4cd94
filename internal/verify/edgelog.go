package verify

import (
	"math"

	"stateless/internal/explore"
	"stateless/internal/par"
)

// Edge-log entries. A worker logs the out-edges of every state it expands
// as one run of int32 entries in its current chunk, preceded by a
// two-entry row header (source store ID, run length); a run never straddles
// chunks. A run entry is the successor's store ID — store IDs are
// non-negative int32 (see explore.Store) — with edgeChanged set when the
// compared section (labels, or outputs when checking output stabilization)
// differs between the source state and its *raw* successor, i.e. before
// the successor is canonicalized under symmetry quotienting. This makes the
// violation criterion exact under the quotient: a real oscillation that
// only rotates a labeling around a ring still flips the bit, even though
// source and canonical successor coincide. After exploration rank rewrites
// the IDs to ranks in place, and the runs themselves serve as the rows of
// the states-graph: the log is the CSR, no copy is made.
const (
	edgeChanged int32 = math.MinInt32 // bit 31: section changed along the edge
	edgeDst     int32 = math.MaxInt32 // the successor's ID (later: rank)
	rowHeader         = 2             // entries before each run: source ID, length
)

// edgeChunk is the edge-log chunk size in entries (256 KiB); a run longer
// than a chunk gets a dedicated chunk of its own. Growing by whole chunks
// means the log never copies. A variable so tests can force multi-chunk
// logs on small instances.
var edgeChunk = 1 << 16

// edgeLog is a sequence of edge-log chunks: one worker's log, or every
// worker's chunks gathered for the analysis.
type edgeLog [][]int32

// appendRow logs the out-edge run of state src: successor IDs dsts, with
// changed[i] the section-change flag of dsts[i].
func (l *edgeLog) appendRow(src int32, dsts []int32, changed []bool) {
	need := rowHeader + len(dsts)
	last := len(*l) - 1
	if last < 0 || cap((*l)[last])-len((*l)[last]) < need {
		*l = append(*l, make([]int32, 0, max(edgeChunk, need)))
		last++
	}
	c := append((*l)[last], src, int32(len(dsts)))
	for i, dst := range dsts {
		if changed[i] {
			dst |= edgeChanged
		}
		c = append(c, dst)
	}
	(*l)[last] = c
}

// rank rewrites every logged successor ID to its store rank in place,
// keeping the changed flag, and indexes the runs by source rank: rows[v]
// aliases state v's run in the log. Chunks fan out over workers; each state
// owns one run, so no two chunks write the same row.
func (l edgeLog) rank(store explore.Store, rows [][]int32, workers int) {
	par.ForEach(len(l), workers, func(i int) error {
		c := l[i]
		for at := 0; at < len(c); {
			src, n := c[at], int(c[at+1])
			at += rowHeader
			row := c[at : at+n : at+n]
			for j, d := range row {
				row[j] = d&edgeChanged | store.Rank(d&edgeDst)
			}
			rows[store.Rank(src)] = row
			at += n
		}
		return nil
	})
}

// entryDst is a row entry's successor (a store ID before rank, a rank
// after it).
func entryDst(d int32) int32 { return d & edgeDst }

// entryChanged reports a row entry's section-change flag. The flag is one
// bit, so on entries OR'd together it reports whether any of them is
// flagged; sccs accumulates its verdict that way.
func entryChanged(d int32) bool { return d&edgeChanged != 0 }
