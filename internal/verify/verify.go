// Package verify decides whether small stateless protocols are label or
// output r-stabilizing by explicit state-space search. It implements the
// construction from the proof of Theorem 3.1 literally: the states-graph
// G' over vertices (ℓ, x) ∈ Σ^E × [r]^n where ℓ is a labeling and x is a
// per-node inactivity countdown, with one edge per admissible activation
// set T ⊇ {i : x_i = 1}, leading to (δ(ℓ,T), c(x,T)).
//
// Deciding r-stabilization is PSPACE-complete (Theorem 4.2) and needs
// exponential communication (Theorem 4.1), so this brute force is the best
// one can hope for in general; it is used on the paper's small gadgets to
// verify the theorems' iff-properties empirically.
//
// The search runs on the shared exploration engine of internal/explore:
// states are bit-packed (internal/enc), the visited set is either a dense
// direct-indexed bitset (narrow states — the packed value is the state ID,
// no hashing or locking) or a sharded-hash intern table, and the frontier
// fans out over a worker pool (Options.Workers). On symmetric topologies
// the engine additionally quotients the states-graph by the graph's
// order-preserving automorphisms (all n rotations of a unidirectional
// ring), exploring one canonical representative per orbit. Verdicts, state
// counts, and witnesses are deterministic and identical across store
// backends and worker counts; under the quotient the state count shrinks
// by up to the group order while the verdict stays exact (see the
// violation criterion at stabilization).
package verify

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/par"
)

// ErrStateSpaceTooLarge is returned when the (estimated or actual) number
// of explored states exceeds the caller's limit.
var ErrStateSpaceTooLarge = errors.New("verify: state space exceeds limit")

// ErrCanceled is returned when Options.Context is canceled before the
// verdict is reached. It wraps the exploration's cancellation error, so
// callers can distinguish a canceled check from a failed one.
var ErrCanceled = errors.New("verify: canceled")

// Progress is a periodic snapshot of a running exploration (see
// Options.Progress): states interned, states expanded, frontier depth,
// elapsed wall time, and the cumulative interning rate.
type Progress = explore.Progress

// DefaultLimit is the state-space bound used when Options.Limit is zero.
const DefaultLimit = 1 << 24

// StoreKind selects the visited-state store backend.
type StoreKind int

// Store backends.
const (
	// StoreAuto picks the dense store when the packed state fits
	// explore.DenseAutoMaxBits, the sharded-hash store otherwise.
	StoreAuto StoreKind = iota
	// StoreDense forces the dense direct-indexed store (errors when the
	// packed state is too wide).
	StoreDense
	// StoreHash forces the sharded-hash store.
	StoreHash
	// StoreBitstate uses the lossy bitstate/Bloom visited set (Spin's
	// -bitstate): fixed memory, hash collisions may silently drop states.
	// A "stabilizing" answer is downgraded to "no violation found"
	// (Decision.Exact = false); a violation witness remains exact. Only
	// rotation-class oscillations (quotient self-loops under symmetry) are
	// detectable on the fly — bitstate mode keeps no edge log, so the SCC
	// analysis that exact mode runs is unavailable.
	StoreBitstate
)

// Bitstate defaults (see Options.BitstateBits / Options.BitstateK).
const (
	// DefaultBitstateBits is the default log2 bit-array size: 2^27 bits =
	// 16 MiB, a hash factor of ~100 at 1.3M admitted states.
	DefaultBitstateBits = 27
	// DefaultBitstateK is the default number of hash functions per state
	// (Spin's default of 3 bits per state).
	DefaultBitstateK = 3
)

// SymmetryMode selects symmetry quotienting.
type SymmetryMode int

// Symmetry modes.
const (
	// SymmetryAuto quotients whenever it is sound: the protocol is
	// node-uniform, the input is invariant under the graph's
	// order-preserving automorphisms, and the group is nontrivial.
	SymmetryAuto SymmetryMode = iota
	// SymmetryOff never quotients.
	SymmetryOff
	// SymmetryOn requires the quotient and errors when it is not
	// applicable.
	SymmetryOn
)

// Options configures a stabilization check.
type Options struct {
	// Limit bounds the number of explored states (0 means DefaultLimit).
	Limit int
	// Workers is the exploration worker-pool size (0 means GOMAXPROCS).
	// The verdict and witness are identical for every worker count.
	Workers int
	// Store selects the visited-state store backend (default StoreAuto).
	// The verdict and witness are identical for every backend.
	Store StoreKind
	// Symmetry selects symmetry quotienting (default SymmetryAuto).
	// Quotienting changes Decision.States (orbit representatives instead
	// of raw states) but never the verdict.
	Symmetry SymmetryMode
	// BitstateBits is the log2 bit capacity of the bitstate store (0 means
	// DefaultBitstateBits). Only meaningful with StoreBitstate.
	BitstateBits int
	// BitstateK is the bitstate store's hash-function count (0 means
	// DefaultBitstateK). Only meaningful with StoreBitstate.
	BitstateK int
	// SpillMemBytes caps the in-memory exploration frontier (every store):
	// past the budget, frontier chunks spill to SpillDir and stream back in
	// depth order. ≤ 0 disables spilling. Exact-store verdicts, witnesses
	// and state counts do not depend on spilling.
	SpillMemBytes int64
	// SpillDir is where frontier chunks live (required when SpillMemBytes
	// > 0 unless CheckpointDir is set, which then hosts the chunks).
	SpillDir string
	// CheckpointDir enables periodic atomic checkpoints of a bitstate run
	// (visited bit array + pending frontier + counters + best witness), so
	// a killed run resumes with Resume to the identical verdict.
	CheckpointDir string
	// CheckpointInterval is the time between checkpoints (≤ 0 means 30s).
	CheckpointInterval time.Duration
	// CheckpointTag is a caller-supplied configuration fingerprint (e.g.
	// "protocol=ring,n=8"). Resume refuses a checkpoint whose tag — or
	// store geometry — differs from the current run's.
	CheckpointTag string
	// Resume restores the run from CheckpointDir's manifest instead of
	// seeding, then continues to the verdict.
	Resume bool
	// Context, when non-nil, cancels the exploration: workers check it once
	// per expanded batch, and a canceled check returns an
	// ErrCanceled-wrapped error. nil means never canceled.
	Context context.Context
	// Batch chunks the engine's intern/enqueue pass: at most Batch
	// successors are interned per store round-trip (≤ 0 means whole-batch,
	// one round-trip per expanded state). Verdicts, witnesses, and state
	// counts are identical for every setting.
	Batch int
	// Progress, when non-nil, receives periodic snapshots of the running
	// exploration (every ProgressInterval) plus one final snapshot after
	// the exploration completes. Callbacks may fire concurrently with the
	// worker pool.
	Progress func(Progress)
	// ProgressInterval is the snapshot period (≤ 0 means 1s).
	ProgressInterval time.Duration
	// Metrics, when non-nil, receives the run's full telemetry: the
	// engine's counters, per-depth discovery series, batch-fill histogram
	// and stage timers (explore/*, store/* — see explore.Config.Metrics),
	// plus the verifier's own sections: sampled timers for the expansion
	// sub-stages (verify/step_ns, verify/pack_ns, verify/canonicalize_ns),
	// analysis-phase wall totals (verify/rank_ns: the in-place pass that
	// rewrites the edge log's store IDs to ranks and fills the row index;
	// verify/csr_ns: allocating that row index — the log itself serves as
	// the CSR, so nothing is copied; verify/scc_ns; verify/witness_ns), and
	// structural gauges (verify/edges, verify/sccs, verify/violating_sccs,
	// verify/quotient, verify/states). Attaching a registry never changes
	// the verdict, witness, or state count; leaving it nil — the default —
	// keeps the hot path free of measurement work.
	Metrics *obs.Registry
}

// Verifier metric names (see Options.Metrics).
const (
	MetricStepNs        = "verify/step_ns"
	MetricPackNs        = "verify/pack_ns"
	MetricCanonNs       = "verify/canonicalize_ns"
	MetricRankNs        = "verify/rank_ns"
	MetricCSRNs         = "verify/csr_ns"
	MetricSCCNs         = "verify/scc_ns"
	MetricWitnessNs     = "verify/witness_ns"
	MetricEdges         = "verify/edges"
	MetricSCCs          = "verify/sccs"
	MetricViolatingSCCs = "verify/violating_sccs"
	MetricQuotient      = "verify/quotient"
	MetricStates        = "verify/states"
)

// stageSampleEvery is the expander stage-timer sampling interval: one in 64
// calls is measured, mirroring the engine's own clocks.
const stageSampleEvery = 64

// Witness describes why a protocol is not r-stabilizing: a reachable cycle
// in the states-graph along which the labeling (or output vector) changes.
type Witness struct {
	// Labelings are two distinct labelings occurring in one strongly
	// connected component of the states-graph, i.e. the system can
	// oscillate between them forever under some r-fair schedule.
	Labelings [2]core.Labeling
	// Outputs are set instead for output-stabilization violations.
	Outputs [2][]core.Bit
}

// Decision is the result of a stabilization check.
type Decision struct {
	// Stabilizing reports the verdict.
	Stabilizing bool
	// States is the number of states explored. Under symmetry quotienting
	// (Quotient > 1) it counts canonical orbit representatives, which can
	// be up to Quotient times fewer than the raw states-graph vertices.
	States int
	// Quotient is the order of the symmetry group the exploration
	// quotiented by (1 when no quotienting happened).
	Quotient int
	// Witness is non-nil iff !Stabilizing.
	Witness *Witness
	// Exact reports whether the verdict is exact. Exact-store runs are
	// always exact. Bitstate runs are exact only when a violation was
	// found (the witness is a concrete transition, re-checkable against
	// the step relation); a bitstate Stabilizing=true means "no violation
	// found" — hash collisions may have pruned reachable states.
	Exact bool
	// BitstateK is the bitstate run's hash-function count (0 when exact).
	BitstateK int
	// HashFactor is the bitstate run's bit capacity divided by admitted
	// states — Spin's trustworthiness diagnostic (aim for > 100). 0 when
	// exact.
	HashFactor float64
}

// EnumerateLabelings calls fn for every labeling in Σ^E, in odometer order.
// fn must not retain the slice. Stops early (returning the callback error)
// if fn fails.
func EnumerateLabelings(space core.LabelSpace, m int, fn func(core.Labeling) error) error {
	l := make(core.Labeling, m)
	for {
		if err := fn(l); err != nil {
			return err
		}
		i := 0
		for i < m {
			l[i]++
			if uint64(l[i]) < space.Size() {
				break
			}
			l[i] = 0
			i++
		}
		if i == m {
			return nil
		}
	}
}

// StableLabelings enumerates all stable labelings of (p, x): the fixed
// points of every reaction function (Section 3). limit bounds |Σ|^|E|.
// The sweep fans out over GOMAXPROCS workers (explore.Labelings); the
// result order is the sequential odometer order regardless. See
// StableLabelingsWorkers for an explicit pool-size knob.
func StableLabelings(p *core.Protocol, x core.Input, limit int) ([]core.Labeling, error) {
	return StableLabelingsWorkers(p, x, limit, 0)
}

// StableLabelingsWorkers is StableLabelings on a bounded worker pool
// (workers ≤ 0 means GOMAXPROCS).
func StableLabelingsWorkers(p *core.Protocol, x core.Input, limit, workers int) ([]core.Labeling, error) {
	m := p.Graph().M()
	if tooMany(p.Space().Size(), m, limit) {
		return nil, fmt.Errorf("%w: |Σ|^m = %d^%d", ErrStateSpaceTooLarge, p.Space().Size(), m)
	}
	// Chunks run concurrently but each chunk index is visited by exactly
	// one goroutine, so per-chunk result slots need no locking.
	chunks := make([][]core.Labeling, explore.ChunkCount(p.Space(), m))
	err := explore.Labelings(p.Space(), m, workers, func(chunk int, l core.Labeling) error {
		if core.IsStable(p, x, l) {
			chunks[chunk] = append(chunks[chunk], l.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return flattenChunks(chunks), nil
}

// flattenChunks concatenates per-chunk results in chunk order, restoring
// the deterministic sequential enumeration order.
func flattenChunks(chunks [][]core.Labeling) []core.Labeling {
	var out []core.Labeling
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

func tooMany(size uint64, m, limit int) bool {
	total := 1.0
	for i := 0; i < m; i++ {
		total *= float64(size)
		if total > float64(limit) {
			return true
		}
	}
	return math.IsInf(total, 0)
}

// ---------------------------------------------------------------------------
// States-graph exploration on the internal/explore engine.

// Edge-log entries. Each worker logs the out-edges of every state it
// expands as one run of int32 entries in its current chunk, preceded by a
// two-entry row header (source store ID, run length); a run never straddles
// chunks. A run entry is the successor's store ID — store IDs are
// non-negative int32 (see explore.Store) — with edgeChanged set when the
// compared section (labels, or outputs when checking output stabilization)
// differs between the source state and its *raw* successor, i.e. before
// the successor is canonicalized under symmetry quotienting. This makes the
// violation criterion exact under the quotient: a real oscillation that
// only rotates a labeling around a ring still flips the bit, even though
// source and canonical successor coincide. After exploration the analysis
// rewrites the IDs to ranks in place, and the runs themselves serve as the
// rows of the states-graph: the log is the CSR, no copy is made.
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

// explorer holds the shared state of one states-graph search.
type explorer struct {
	p            *core.Protocol
	x            core.Input
	r            int
	trackOutputs bool
	limit        int
	workers      int
	opts         Options

	codec *enc.Codec
	store explore.Store
	sym   *explore.Symmetry // nil = no quotient

	// expanders[w] is worker w's expander; its edge buffer is merged after
	// the engine joins its workers.
	expanders []*expander

	// Bitstate-mode violation record: the canonically smallest quotient
	// self-loop with a section change, found on the fly (bitstate keeps no
	// edge log to analyse afterwards). vioA/vioB are the packed source
	// state and its raw successor; both are exact reachable states, so the
	// witness extracted from them is exact even though the store is lossy.
	vioMu   sync.Mutex
	vioHave bool
	vioA    []uint64
	vioB    []uint64
}

func newExplorer(p *core.Protocol, x core.Input, r int, trackOutputs bool, opts Options, limit int) (*explorer, error) {
	g := p.Graph()
	codec := enc.NewStateCodec(p.Space(), g.M(), g.N(), r, trackOutputs)
	var store explore.Store
	switch opts.Store {
	case StoreAuto:
		store = explore.NewStore(codec)
	case StoreDense:
		if codec.Bits() > explore.DenseMaxBits {
			return nil, fmt.Errorf("verify: dense store requested but state is %d bits (max %d)",
				codec.Bits(), explore.DenseMaxBits)
		}
		store = explore.NewDense(codec.Bits())
	case StoreHash:
		store = explore.NewHash(codec.Words())
	case StoreBitstate:
		logBits := opts.BitstateBits
		if logBits <= 0 {
			logBits = DefaultBitstateBits
		}
		k := opts.BitstateK
		if k <= 0 {
			k = DefaultBitstateK
		}
		store = explore.NewBitstate(codec.Words(), logBits, k)
	default:
		return nil, fmt.Errorf("verify: unknown store kind %d", opts.Store)
	}
	if (opts.CheckpointDir != "" || opts.Resume) && !store.Lossy() {
		return nil, errors.New("verify: checkpoint/resume requires the bitstate store")
	}
	var sym *explore.Symmetry
	switch opts.Symmetry {
	case SymmetryOff:
	case SymmetryAuto:
		sym = explore.NewSymmetry(p, x, codec)
	case SymmetryOn:
		sym = explore.NewSymmetry(p, x, codec)
		if sym == nil {
			return nil, errors.New("verify: symmetry quotient requested but not applicable " +
				"(needs a node-uniform protocol, an automorphism-invariant input, and a symmetric topology)")
		}
	default:
		return nil, fmt.Errorf("verify: unknown symmetry mode %d", opts.Symmetry)
	}
	workers := par.Workers(opts.Workers)
	return &explorer{
		p:            p,
		x:            x,
		r:            r,
		trackOutputs: trackOutputs,
		limit:        limit,
		workers:      workers,
		opts:         opts,
		codec:        codec,
		store:        store,
		sym:          sym,
		expanders:    make([]*expander, workers),
	}, nil
}

// expander is one worker's expansion scratch; expansion does zero per-state
// heap allocation once the buffers are warm. One Expand call produces the
// whole successor batch of a state by a subset DP over the packed words and
// canonicalizes it block-wise.
//
// The DP rests on one observation: a node's activation rewrites a fixed,
// per-node set of bits of the packed state — its out-edge label fields, its
// countdown field, and its output bit — and those bit sets are disjoint
// across nodes (every edge has one source). So once each node's reaction is
// known, a successor is two ALU ops per word away from any successor whose
// activation set differs by one node. The per-node rows hold one entry per
// packed word, stored word-major (word j of node v at [j*n+v]), so the DP
// over word j is a plain one-word loop.
type expander struct {
	e       *explorer
	stepper *core.Stepper
	canon   *explore.Canon
	cur     core.Config
	cd      []uint8
	free    []int
	changed []bool // per-successor section-change flags (vs the raw block)
	keepRaw bool   // witness pass: retain the pre-canonical block in raw
	raw     []uint64
	lossy   bool     // bitstate mode: no edge log, on-the-fly self-loop check
	src     []uint64 // lossy mode: the expanded source state (for Absorb)
	// log is the worker's edge log (see edgeChanged): chunks of row
	// headers and out-edge runs, one run per expanded state.
	log [][]int32

	// Stage telemetry (nil without Options.Metrics): sampled stopwatches
	// over the expansion sub-stages, flushed once after the engine joins
	// its workers (the engine never touches them), plus the edge counter
	// bumped once per absorbed batch.
	clkStep   *obs.Clock
	clkPack   *obs.Clock
	clkCanon  *obs.Clock
	edgeCount *obs.Counter

	clearMask  []uint64 // per word, per node: the bits its activation rewrites
	patchFixed []uint64 // per word, per node: countdown reset to r, the state-free part
	patch      []uint64 // per word, per node, per state: patchFixed | reacted labels | output
	cdOne      []uint64 // per word: 1 in every countdown field (cd−1 base = words − cdOne)
	secMask    []uint64 // per word: mask of the compared section
	labelOff   []int    // per edge: bit offset of its label field
	labelSrc   []int    // per edge: its source node, whose patch row holds it
	outOff     []int    // per node: bit offset of its output bit (nil if untracked)
	reactL     []core.Label
	reactO     []core.Bit
}

// orField ORs v into the width-bit field at bit offset off of a row whose
// word j lives at row[j*stride], splitting the field across two words when
// it straddles a word boundary. v must fit in width bits.
func orField(row []uint64, stride, off int, width uint, v uint64) {
	wi, sh := off>>6, uint(off&63)
	row[wi*stride] |= v << sh
	if sh+width > 64 {
		row[(wi+1)*stride] |= v >> (64 - sh)
	}
}

// subsetDP fills word j of every successor in block (w words per key).
// The successor of free-node subset sub is base patched with the nodes in
// sub, derived in two ALU ops from the successor of sub without its lowest
// node. With forced nodes every subset is admissible and sub sits at slot
// sub; without, the empty subset is not, and sub sits at slot sub−1. (A
// function of its own keeps the loop's operands in registers.)
func subsetDP(block []uint64, w, j int, base uint64, clr, pat []uint64, free []int, forced bool) {
	pat = pat[:len(clr)]
	end := 1 << len(free)
	if forced {
		block[j] = base
		for sub := 1; sub < end; sub++ {
			v := free[bits.TrailingZeros(uint(sub))]
			block[sub*w+j] = block[(sub&(sub-1))*w+j]&^clr[v] | pat[v]
		}
		return
	}
	for sub := 1; sub < end; sub++ {
		prev := base
		if rest := sub & (sub - 1); rest != 0 {
			prev = block[(rest-1)*w+j]
		}
		v := free[bits.TrailingZeros(uint(sub))]
		block[(sub-1)*w+j] = prev&^clr[v] | pat[v]
	}
}

// markChanged folds word j of every key in block (w words per key) into
// the per-key section-change flags: key i changed iff it differs from the
// source word src under the section mask sec in some word. Word 0
// overwrites the flags, later words OR into them.
func markChanged(changed []bool, block []uint64, w, j int, src, sec uint64) {
	for i := range changed {
		c := (block[i*w+j]^src)&sec != 0
		if j > 0 {
			c = c || changed[i]
		}
		changed[i] = c
	}
}

func (e *explorer) newExpander() *expander {
	g := e.p.Graph()
	n, m := g.N(), g.M()
	c := e.codec
	w := c.Words()
	ex := &expander{
		e:          e,
		stepper:    core.NewStepper(e.p),
		cd:         make([]uint8, n),
		cur:        core.Config{Labels: make(core.Labeling, m)},
		free:       make([]int, 0, n),
		clearMask:  make([]uint64, w*n),
		patchFixed: make([]uint64, w*n),
		patch:      make([]uint64, w*n),
		cdOne:      make([]uint64, w),
		secMask:    make([]uint64, w),
		labelOff:   make([]int, m),
		labelSrc:   make([]int, m),
		reactL:     make([]core.Label, m),
		reactO:     make([]core.Bit, n),
	}
	if e.sym != nil {
		ex.canon = e.sym.NewCanon()
	}
	if e.store.Lossy() {
		ex.lossy = true
		// The self-loop check needs the raw successor block and the source
		// state; without symmetry no violation is detectable (a raw
		// self-loop cannot change the section), so skip the copies.
		ex.keepRaw = ex.canon != nil
	}
	if m := e.opts.Metrics; m != nil {
		ex.clkStep = obs.NewClock(m.Timer(MetricStepNs), stageSampleEvery)
		ex.clkPack = obs.NewClock(m.Timer(MetricPackNs), stageSampleEvery)
		ex.clkCanon = obs.NewClock(m.Timer(MetricCanonNs), stageSampleEvery)
		ex.edgeCount = m.Counter(MetricEdges)
	}
	lBits, cdBits := uint(c.LabelFieldBits()), uint(c.CountdownFieldBits())
	lMask, cdMask := uint64(1)<<lBits-1, uint64(1)<<cdBits-1
	for eid := range ex.labelOff {
		off, v := c.LabelOffset(eid), int(g.Edge(graph.EdgeID(eid)).From)
		ex.labelOff[eid], ex.labelSrc[eid] = off, v
		orField(ex.clearMask[v:], n, off, lBits, lMask)
	}
	if c.HasOutputs() {
		ex.outOff = make([]int, n)
		for v := range ex.outOff {
			ex.outOff[v] = c.OutputOffset(v)
			orField(ex.clearMask[v:], n, ex.outOff[v], 1, 1)
		}
	}
	for v := 0; v < n; v++ {
		cdOff := c.CountdownOffset(v)
		orField(ex.clearMask[v:], n, cdOff, cdBits, cdMask)
		orField(ex.patchFixed[v:], n, cdOff, cdBits, uint64(e.r))
		orField(ex.cdOne, 1, cdOff, cdBits, 1)
	}
	if e.trackOutputs {
		for _, off := range ex.outOff {
			orField(ex.secMask, 1, off, 1, 1)
		}
	} else {
		for _, off := range ex.labelOff {
			orField(ex.secMask, 1, off, lBits, lMask)
		}
	}
	return ex
}

// Expand implements explore.Expander: fill the batch with the packed
// (canonicalized) successors of the state in words — one per admissible
// activation set T ⊇ {i : x_i = 1} — and record each successor's
// section-change flag against the raw (pre-canonicalization) block.
// Successor i is the i-th admissible free-node subset in ascending bitmask
// order.
//
// Every node's reaction is computed once and turned into a per-node
// (clearMask, patch) rewrite of the packed words; the block then falls out
// of a subset DP in which each successor is derived from the successor one
// activation short of it, with no configuration materialization, no
// field-by-field packing, and no per-successor copying.
func (ex *expander) Expand(id int32, words []uint64, b *explore.Batch) error {
	e := ex.e
	n, w := e.p.Graph().N(), len(words)
	ex.cur.Labels = e.codec.UnpackLabels(words, ex.cur.Labels)
	ex.cd = e.codec.UnpackCountdown(words, ex.cd)
	ex.clkStep.Start()
	ex.stepper.Reactions(e.x, ex.cur, ex.reactL, ex.reactO)
	ex.clkStep.Stop()
	ex.clkPack.Start()
	lBits := uint(e.codec.LabelFieldBits())
	copy(ex.patch, ex.patchFixed)
	for eid, l := range ex.reactL {
		orField(ex.patch[ex.labelSrc[eid]:], n, ex.labelOff[eid], lBits, uint64(l))
	}
	for v, off := range ex.outOff {
		orField(ex.patch[v:], n, off, 1, uint64(ex.reactO[v]))
	}
	ex.free = ex.free[:0]
	for v, c := range ex.cd {
		if c != 1 {
			ex.free = append(ex.free, v)
		}
	}
	f := len(ex.free)
	forced := f < n
	count := 1 << f
	if !forced {
		count-- // the empty activation set is inadmissible
	}
	block := b.Alloc(count)
	var borrow uint64
	for j := 0; j < w; j++ {
		clr, pat := ex.clearMask[j*n:(j+1)*n], ex.patch[j*n:(j+1)*n]
		// Word j of the base: words − cdOne with the forced nodes patched
		// in. Countdowns are stored raw in [1, r], so the subtraction never
		// borrows out of a countdown field; only a field straddling words
		// j and j+1 passes a borrow between them. Forced fields (cd = 1)
		// briefly hold 0 and are patched to r.
		var base uint64
		base, borrow = bits.Sub64(words[j], ex.cdOne[j], borrow)
		for v, c := range ex.cd {
			if c == 1 {
				base = base&^clr[v] | pat[v]
			}
		}
		subsetDP(block, w, j, base, clr, pat, ex.free, forced)
	}
	ex.clkPack.Stop()

	if cap(ex.changed) < count {
		ex.changed = make([]bool, count)
	}
	ex.changed = ex.changed[:count]
	for j := range words {
		markChanged(ex.changed, block, w, j, words[j], ex.secMask[j])
	}
	if ex.keepRaw {
		ex.raw = append(ex.raw[:0], block...)
	}
	if ex.lossy && ex.keepRaw {
		ex.src = append(ex.src[:0], words...)
	}
	if ex.canon != nil {
		ex.clkCanon.Start()
		ex.canon.CanonicalizeBatch(block, count)
		ex.clkCanon.Stop()
	}
	return nil
}

// Absorb appends the expanded state's out-edge run to the worker's edge
// log once the engine has interned the batch and filled in the store IDs.
// The engine expands every state exactly once and absorbs its whole
// successor block in one call, so each state owns exactly one run. In
// bitstate mode there is no edge log; instead Absorb runs the on-the-fly
// violation check.
func (ex *expander) Absorb(id int32, b *explore.Batch) error {
	ex.edgeCount.Add(int64(len(b.IDs)))
	if ex.lossy {
		return ex.absorbLossy(b)
	}
	need := rowHeader + len(b.IDs)
	last := len(ex.log) - 1
	if last < 0 || cap(ex.log[last])-len(ex.log[last]) < need {
		ex.log = append(ex.log, make([]int32, 0, max(edgeChunk, need)))
		last++
	}
	c := append(ex.log[last], id, int32(len(b.IDs)))
	for i, dst := range b.IDs {
		if ex.changed[i] {
			dst |= edgeChanged
		}
		c = append(c, dst)
	}
	ex.log[last] = c
	return nil
}

// absorbLossy is the bitstate-mode violation check: a successor whose
// canonical key equals the (canonical) source state is a quotient
// self-loop, and if the compared section changed along the raw transition
// it proves a genuine oscillation (the raw cycle rotates the section
// around the ring forever; see the violation criterion at stabilization).
// This is the only cycle shape detectable without the edge log, so a
// bitstate run can miss longer oscillations — which is why its clean
// verdict is "no violation found", not "stabilizing". Without symmetry
// there is nothing to check: a raw self-loop cannot change the section.
func (ex *expander) absorbLossy(b *explore.Batch) error {
	if ex.canon == nil {
		return nil
	}
	wpk := b.WordsPerKey()
	for i := 0; i < b.Len(); i++ {
		if !ex.changed[i] {
			continue
		}
		if !wordsEqual(b.Key(i), ex.src) {
			continue
		}
		ex.e.recordViolation(ex.src, ex.raw[i*wpk:(i+1)*wpk])
	}
	return nil
}

// wordsEqual compares two packed states.
func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordViolation keeps the canonically smallest violation pair (same
// ordering as the exact witness pass), so the reported witness does not
// depend on which worker found it first.
func (e *explorer) recordViolation(src, raw []uint64) {
	compare := e.codec.CompareLabels
	if e.trackOutputs {
		compare = e.codec.CompareOutputs
	}
	a, b := src, raw
	if compare(b, a) < 0 {
		a, b = b, a
	}
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	if e.vioHave && !less2(compare, a, b, e.vioA, e.vioB) {
		return
	}
	e.vioA = append(e.vioA[:0], a...)
	e.vioB = append(e.vioB[:0], b...)
	e.vioHave = true
}

// checkpointExtra serializes the violation record into the checkpoint
// manifest, so a witness found before a kill survives the resume.
func (e *explorer) checkpointExtra() []byte {
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	if !e.vioHave {
		return nil
	}
	buf := make([]byte, 0, 8*(len(e.vioA)+len(e.vioB)))
	for _, w := range e.vioA {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range e.vioB {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// restoreExtra is checkpointExtra's inverse, applied during resume.
func (e *explorer) restoreExtra(raw []byte) error {
	wpk := e.codec.Words()
	if len(raw) != 16*wpk {
		return fmt.Errorf("verify: checkpoint witness payload is %d bytes, want %d", len(raw), 16*wpk)
	}
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	e.vioA = e.vioA[:0]
	e.vioB = e.vioB[:0]
	for i := 0; i < wpk; i++ {
		e.vioA = append(e.vioA, binary.LittleEndian.Uint64(raw[i*8:]))
	}
	for i := wpk; i < 2*wpk; i++ {
		e.vioB = append(e.vioB, binary.LittleEndian.Uint64(raw[i*8:]))
	}
	e.vioHave = true
	return nil
}

// seed interns the (canonicalized) initial vertices (ℓ, r^n), sweeping the
// enumeration across the worker pool. For general protocols ℓ ranges over
// all of Σ^E; for symmetric (broadcast) protocols it ranges over the
// per-node-uniform labelings only — Σ^n seeds instead of Σ^m, which is what
// makes torus and hypercube instances (m up to 4n) enumerable at all.
//
// Soundness of the restriction: the verdict depends only on the SCCs of the
// states-graph, and every state on a cycle has per-node-uniform labels —
// each in-edge label was written by its source's most recent broadcast
// (countdowns force every node to activate along a cycle), and a broadcast
// writes one label on all out-edges. It remains to reach every such SCC
// from a restricted seed. Take any cycle state (ℓ, c⃗) with ℓ per-node
// uniform; the seed (ℓ, r^n) is restricted, and (ℓ, r^n) simulates any
// admissible activation sequence from (ℓ, c⃗): countdown vectors dominate
// (r ≥ c_v pointwise) and domination is preserved step by step — activated
// nodes reset to r on both sides, idle nodes decrement both sides — so a
// set with cd_v = 1 forcing v on the seed side forces v on the original
// side too, i.e. the original's schedule stays admissible. Replaying the
// schedule that closes the original cycle once makes the two label
// components equal (labels depend only on activations), and countdowns
// agree after each node's first activation, so the run from the seed enters
// the original cycle's SCC. Hence every cycle-bearing SCC — and with it the
// verdict and a witness — is reachable from the restricted seeds.
func (e *explorer) seed(emit explore.Emit) error {
	g := e.p.Graph()
	n, m := g.N(), g.M()
	cd := make([]uint8, n)
	for i := range cd {
		cd[i] = uint8(e.r)
	}
	// Initial outputs are arbitrary in the model; we use zeros. Cycle
	// analysis only inspects states on cycles, where every node has been
	// activated (countdowns force it), so the initial vector washes out.
	outs := make([]core.Bit, n)
	type seedScratch struct {
		key   []uint64
		lab   core.Labeling
		canon *explore.Canon
	}
	pool := sync.Pool{New: func() any {
		sc := &seedScratch{}
		if e.sym != nil {
			sc.canon = e.sym.NewCanon()
		}
		return sc
	}}
	intern := func(sc *seedScratch, l core.Labeling) error {
		sc.key = e.codec.Pack(l, cd, outs, sc.key)
		key := sc.key
		if sc.canon != nil {
			key = sc.canon.Canonicalize(key)
		}
		_, _, err := emit(key)
		return err
	}
	if e.p.Symmetric() {
		return explore.Labelings(e.p.Space(), n, e.workers, func(_ int, assign core.Labeling) error {
			sc := pool.Get().(*seedScratch)
			defer pool.Put(sc)
			if cap(sc.lab) < m {
				sc.lab = make(core.Labeling, m)
			}
			sc.lab = sc.lab[:m]
			for v := 0; v < n; v++ {
				for _, id := range g.Out(graph.NodeID(v)) {
					sc.lab[id] = assign[v]
				}
			}
			return intern(sc, sc.lab)
		})
	}
	return explore.Labelings(e.p.Space(), m, e.workers, func(_ int, l core.Labeling) error {
		sc := pool.Get().(*seedScratch)
		defer pool.Put(sc)
		return intern(sc, l)
	})
}

// explore runs the engine to a fixed point.
func (e *explorer) explore() error {
	cfg := explore.Config{
		Store:   e.store,
		Workers: e.workers,
		Limit:   e.limit,
		Seed:    e.seed,
		NewExpander: func(w int) explore.Expander {
			ex := e.newExpander()
			e.expanders[w] = ex
			return ex
		},
		Ctx:                e.opts.Context,
		MaxBatch:           e.opts.Batch,
		Progress:           e.opts.Progress,
		ProgressInterval:   e.opts.ProgressInterval,
		Metrics:            e.opts.Metrics,
		FrontierMemBytes:   e.opts.SpillMemBytes,
		SpillDir:           e.opts.SpillDir,
		CheckpointDir:      e.opts.CheckpointDir,
		CheckpointInterval: e.opts.CheckpointInterval,
		Resume:             e.opts.Resume,
	}
	if e.opts.CheckpointDir != "" {
		cfg.CheckpointTag = e.checkpointTag()
		cfg.CheckpointExtra = e.checkpointExtra
		cfg.RestoreExtra = e.restoreExtra
	}
	return explore.Run(cfg)
}

// checkpointTag extends the caller's tag with the run geometry, so a
// resume against a checkpoint from a different protocol instance, store
// sizing, or verdict mode fails loudly instead of corrupting the search.
func (e *explorer) checkpointTag() string {
	bs := e.store.(*explore.Bitstate)
	return fmt.Sprintf("%s|v1|wpk=%d|bits=%d|k=%d|r=%d|out=%t|sym=%d|limit=%d",
		e.opts.CheckpointTag, e.codec.Words(), bs.Bits(), bs.K(), e.r, e.trackOutputs, e.sym.Order(), e.limit)
}

// flushStageClocks merges every worker's sampled stage locals into the
// shared timers. Called after the engine has joined its workers, so no
// Clock is concurrently active.
func (e *explorer) flushStageClocks() {
	for _, ex := range e.expanders {
		if ex != nil {
			ex.clkStep.Flush()
			ex.clkPack.Flush()
			ex.clkCanon.Flush()
		}
	}
}

// rankRows rewrites every logged successor ID to its rank in place,
// keeping the edgeChanged bit, and indexes the runs by source rank: the
// result's row v aliases state v's run in the log. Chunks fan out over the
// worker pool; each state owns one run, so no two chunks write the same
// row. Ranking once up front means the SCC stage, the violating-SCC scan,
// and the witness pass index comp directly instead of paying a Store.Rank
// per edge visit (for the dense store that is a popcount plus two
// dependent loads — it dominated the analysis-phase profile).
func (e *explorer) rankRows(rows [][]int32) {
	var chunks [][]int32
	for _, ex := range e.expanders {
		if ex != nil {
			chunks = append(chunks, ex.log...)
		}
	}
	par.ForEach(len(chunks), e.workers, func(i int) error {
		c := chunks[i]
		for at := 0; at < len(c); {
			src, n := c[at], int(c[at+1])
			at += rowHeader
			row := c[at : at+n : at+n]
			for j, d := range row {
				row[j] = d&edgeChanged | e.store.Rank(d&edgeDst)
			}
			rows[e.store.Rank(src)] = row
			at += n
		}
		return nil
	})
}

// sccs runs iterative Tarjan over the ranked rows (rankRows) and returns
// the component index of every state plus the component count.
func sccs(rows [][]int32) ([]int32, int) {
	const unvisited = -1
	nStates := len(rows)
	index := make([]int32, nStates)
	low := make([]int32, nStates)
	comp := make([]int32, nStates)
	onStack := make([]bool, nStates)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int32
		nComps  int
		counter int32
	)
	type frame struct {
		v    int32
		next int32
	}
	for start := int32(0); start < int32(nStates); start++ {
		if index[start] != unvisited {
			continue
		}
		callStack := []frame{{start, 0}}
		index[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			row := rows[f.v]
			if int(f.next) < len(row) {
				u := row[f.next] & edgeDst
				f.next++
				if index[u] == unvisited {
					index[u], low[u] = counter, counter
					counter++
					stack = append(stack, u)
					onStack[u] = true
					callStack = append(callStack, frame{u, 0})
				} else if onStack[u] && index[u] < low[f.v] {
					low[f.v] = index[u]
				}
				continue
			}
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(nComps)
					if w == v {
						break
					}
				}
				nComps++
			}
		}
	}
	return comp, nComps
}

// stabilization runs the full check: explore, SCC-decompose, and decide.
//
// Violation criterion: the protocol fails to stabilize iff some transition
// *inside* an SCC changes the compared section (labels or outputs) between
// its source state and its raw successor. Without quotienting this is
// equivalent to the classic "two distinct sections inside a cycle-bearing
// SCC" (an SCC whose internal transitions all preserve the section is
// section-constant, and conversely two distinct sections in an SCC are
// joined by internal transitions, one of which must change the section).
// Under symmetry quotienting it remains exact where the classic check
// breaks: a run that endlessly *rotates* a labeling around the ring maps
// to a quotient self-loop on one canonical state, which state-pair
// comparison would miss, but the raw successor of that canonical state
// differs from it in the label section, so the edge is flagged. Lifting a
// flagged quotient edge back to the full states-graph always yields a real
// cycle through two section-distinct states (automorphisms have finite
// order), and conversely a section-constant quotient SCC lifts only to
// section-constant SCCs, so the verdict is identical with and without the
// quotient.
func stabilization(p *core.Protocol, x core.Input, r int, trackOutputs bool, opts Options) (Decision, error) {
	if r < 1 {
		return Decision{}, errors.New("verify: r must be ≥ 1")
	}
	if r > 255 {
		// Countdowns are stored as uint8; larger r would silently wrap.
		return Decision{}, errors.New("verify: r must be ≤ 255")
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if limit > 1<<30 {
		limit = 1 << 30 // packed state IDs are int32
	}
	g := p.Graph()
	// Symmetric protocols seed from per-node labelings (see explorer.seed),
	// so the enumeration guard uses exponent n instead of m.
	seedExp := g.M()
	if p.Symmetric() {
		seedExp = g.N()
	}
	if tooMany(p.Space().Size(), seedExp, limit) {
		return Decision{}, fmt.Errorf("%w: seed labeling space too large", ErrStateSpaceTooLarge)
	}
	e, err := newExplorer(p, x, r, trackOutputs, opts, limit)
	if err != nil {
		return Decision{}, err
	}
	if err := e.explore(); err != nil {
		e.flushStageClocks()
		if errors.Is(err, explore.ErrLimit) {
			return Decision{}, fmt.Errorf("%w: %v", ErrStateSpaceTooLarge, err)
		}
		if errors.Is(err, explore.ErrCanceled) {
			return Decision{}, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		return Decision{}, err
	}
	e.flushStageClocks()
	if e.store.Lossy() {
		return e.lossyDecision()
	}
	m := opts.Metrics
	total := e.store.Compact()
	// Analysis-phase timings are single measurements per run, so they use
	// plain wall clocks rather than the hot path's sampled stopwatches.
	t0 := time.Now()
	rows := make([][]int32, total)
	t1 := time.Now()
	e.rankRows(rows)
	t2 := time.Now()
	comp, nComps := sccs(rows)
	t3 := time.Now()
	m.Gauge(MetricCSRNs).Set(int64(t1.Sub(t0)))
	m.Gauge(MetricRankNs).Set(int64(t2.Sub(t1)))
	m.Gauge(MetricSCCNs).Set(int64(t3.Sub(t2)))
	m.Gauge(MetricSCCs).Set(int64(nComps))
	violating, nViolating := violatingSCCs(rows, comp, nComps)
	m.Gauge(MetricViolatingSCCs).Set(int64(nViolating))
	m.Gauge(MetricQuotient).Set(int64(e.sym.Order()))
	m.Gauge(MetricStates).Set(int64(total))
	dec := Decision{Stabilizing: nViolating == 0, States: total, Quotient: e.sym.Order(), Exact: true}
	if nViolating == 0 {
		return dec, nil
	}
	t4 := time.Now()
	w, err := e.witness(total, comp, violating)
	m.Gauge(MetricWitnessNs).Set(int64(time.Since(t4)))
	if err != nil {
		return Decision{}, err
	}
	dec.Witness = w
	return dec, nil
}

// violatingSCCs marks the components that contain an internal
// section-changing transition (see the violation criterion at
// stabilization) and counts them.
func violatingSCCs(rows [][]int32, comp []int32, nComps int) ([]bool, int) {
	violating := make([]bool, nComps)
	n := 0
	for v, row := range rows {
		cc := comp[v]
		if violating[cc] {
			continue
		}
		for _, d := range row {
			if d < 0 && comp[d&edgeDst] == cc {
				violating[cc] = true
				n++
				break
			}
		}
	}
	return violating, n
}

// lossyDecision assembles the verdict of a bitstate run: the graph
// analysis of exact mode (rank → rows → SCC) never runs — the lossy store
// cannot reproduce states and no edge log exists — so the decision is
// either the on-the-fly violation (exact witness) or "no violation found".
// The schema-required verify gauges are still published, zeroed where the
// stage did not run, so bitstate reports validate against the same schema.
func (e *explorer) lossyDecision() (Decision, error) {
	m := e.opts.Metrics
	total := e.store.Len()
	m.Gauge(MetricRankNs).Set(0)
	m.Gauge(MetricCSRNs).Set(0)
	m.Gauge(MetricSCCNs).Set(0)
	m.Gauge(MetricWitnessNs).Set(0)
	m.Gauge(MetricSCCs).Set(0)
	m.Gauge(MetricQuotient).Set(int64(e.sym.Order()))
	m.Gauge(MetricStates).Set(int64(total))
	bs := e.store.(*explore.Bitstate)
	dec := Decision{
		States:     total,
		Quotient:   e.sym.Order(),
		BitstateK:  bs.K(),
		HashFactor: bs.HashFactor(),
	}
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	if !e.vioHave {
		m.Gauge(MetricViolatingSCCs).Set(0)
		dec.Stabilizing = true
		return dec, nil
	}
	m.Gauge(MetricViolatingSCCs).Set(1)
	dec.Stabilizing = false
	dec.Exact = true // a concrete violation is exact even under a lossy store
	w := &Witness{}
	if e.trackOutputs {
		w.Outputs = [2][]core.Bit{
			e.codec.UnpackOutputs(e.vioA, nil),
			e.codec.UnpackOutputs(e.vioB, nil),
		}
	} else {
		w.Labelings = [2]core.Labeling{
			e.codec.UnpackLabels(e.vioA, nil),
			e.codec.UnpackLabels(e.vioB, nil),
		}
	}
	dec.Witness = w
	return dec, nil
}

// witness re-expands the states of every violating SCC and picks the
// canonically smallest section-changing internal transition: the pair
// (source section, raw-successor section), ordered within the pair and
// then globally by the packed-section order. The choice depends only on
// the explored state set, so it is identical across store backends and
// worker counts. Both endpoints are genuine reachable states of the full
// states-graph (canonical representatives are reachable because the seed
// set and the transition relation are closed under the automorphism
// group), and a section-changing internal transition always lies on a real
// cycle, so the pair witnesses a genuine oscillation.
func (e *explorer) witness(total int, comp []int32, violating []bool) (*Witness, error) {
	compare := e.codec.CompareLabels
	if e.trackOutputs {
		compare = e.codec.CompareOutputs
	}
	ex := e.newExpander()
	ex.keepRaw = true // Expand retains the pre-canonical block in ex.raw
	scratch := explore.NewBatch(e.codec.Words())
	wpk := e.codec.Words()
	var stateBuf, bestA, bestB []uint64
	for rank := int32(0); rank < int32(total); rank++ {
		if !violating[comp[rank]] {
			continue
		}
		state := e.store.WordsAt(rank, stateBuf)
		stateBuf = state // reuse the materialization buffer next round
		scratch.Reset()
		if err := ex.Expand(0, state, scratch); err != nil {
			return nil, err
		}
		for i := 0; i < scratch.Len(); i++ {
			if !ex.changed[i] {
				continue
			}
			raw := ex.raw[i*wpk : (i+1)*wpk]
			// scratch.Key(i) is the canonical successor, already interned
			// (same expansion as the exploration), so this lookup never
			// grows the store.
			id, _, err := e.store.Intern(scratch.Key(i))
			if err != nil {
				return nil, err
			}
			if comp[e.store.Rank(id)] != comp[rank] {
				continue // transition leaves the SCC
			}
			a, b := state, raw
			if compare(b, a) < 0 {
				a, b = b, a
			}
			if bestA == nil || less2(compare, a, b, bestA, bestB) {
				bestA = append(bestA[:0], a...)
				bestB = append(bestB[:0], b...)
			}
		}
	}
	if bestA == nil {
		return nil, errors.New("verify: internal error: violating SCC without a changing transition")
	}
	w := &Witness{}
	if e.trackOutputs {
		w.Outputs = [2][]core.Bit{
			e.codec.UnpackOutputs(bestA, nil),
			e.codec.UnpackOutputs(bestB, nil),
		}
	} else {
		w.Labelings = [2]core.Labeling{
			e.codec.UnpackLabels(bestA, nil),
			e.codec.UnpackLabels(bestB, nil),
		}
	}
	return w, nil
}

// less2 orders witness candidate pairs lexicographically.
func less2(compare func(a, b []uint64) int, a1, b1, a2, b2 []uint64) bool {
	if c := compare(a1, a2); c != 0 {
		return c < 0
	}
	return compare(b1, b2) < 0
}

// LabelRStabilizing decides whether p (with input x) is label
// r-stabilizing: for every initial labeling and every r-fair schedule, the
// labeling sequence converges. limit bounds the explored state count.
//
// Soundness: an infinite run of the system corresponds to an infinite path
// in the states-graph, whose infinitely-visited vertex set lies inside one
// SCC. On a cycle the countdown forces every node to activate, so a cycle
// whose labelings are all equal has a stable labeling; hence the protocol
// fails to label r-stabilize iff some SCC contains an internal
// label-changing transition.
func LabelRStabilizing(p *core.Protocol, x core.Input, r int, limit int) (Decision, error) {
	return LabelRStabilizingOpts(p, x, r, Options{Limit: limit})
}

// LabelRStabilizingOpts is LabelRStabilizing with explicit engine options.
func LabelRStabilizingOpts(p *core.Protocol, x core.Input, r int, opts Options) (Decision, error) {
	return stabilization(p, x, r, false, opts)
}

// OutputRStabilizing decides whether p (with input x) is output
// r-stabilizing: every node's output sequence converges on every r-fair
// schedule from every initial labeling. Same SCC criterion, applied to the
// output vectors of states on cycles.
func OutputRStabilizing(p *core.Protocol, x core.Input, r int, limit int) (Decision, error) {
	return OutputRStabilizingOpts(p, x, r, Options{Limit: limit})
}

// OutputRStabilizingOpts is OutputRStabilizing with explicit engine options.
func OutputRStabilizingOpts(p *core.Protocol, x core.Input, r int, opts Options) (Decision, error) {
	return stabilization(p, x, r, true, opts)
}

// StablePerNodeLabelings enumerates the stable labelings of protocols in
// which every node emits the same label on all outgoing edges (cliques and
// other "broadcast" protocols, e.g. best-response dynamics): any stable
// labeling of such a protocol is per-node uniform, so it suffices to sweep
// |Σ|^n per-node assignments instead of |Σ|^|E| labelings. The sweep fans
// out over GOMAXPROCS workers; the result order is deterministic. See
// StablePerNodeLabelingsWorkers for an explicit pool-size knob.
func StablePerNodeLabelings(p *core.Protocol, x core.Input, limit int) ([]core.Labeling, error) {
	return StablePerNodeLabelingsWorkers(p, x, limit, 0)
}

// StablePerNodeLabelingsWorkers is StablePerNodeLabelings on a bounded
// worker pool (workers ≤ 0 means GOMAXPROCS).
func StablePerNodeLabelingsWorkers(p *core.Protocol, x core.Input, limit, workers int) ([]core.Labeling, error) {
	g := p.Graph()
	n := g.N()
	if tooMany(p.Space().Size(), n, limit) {
		return nil, fmt.Errorf("%w: |Σ|^n = %d^%d", ErrStateSpaceTooLarge, p.Space().Size(), n)
	}
	pool := sync.Pool{New: func() any {
		l := make(core.Labeling, g.M())
		return &l
	}}
	chunks := make([][]core.Labeling, explore.ChunkCount(p.Space(), n))
	err := explore.Labelings(p.Space(), n, workers, func(chunk int, assign core.Labeling) error {
		lp := pool.Get().(*core.Labeling)
		defer pool.Put(lp)
		l := *lp
		for v := 0; v < n; v++ {
			for _, id := range g.Out(graph.NodeID(v)) {
				l[id] = assign[v]
			}
		}
		if core.IsStable(p, x, l) {
			chunks[chunk] = append(chunks[chunk], l.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return flattenChunks(chunks), nil
}
