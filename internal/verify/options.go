package verify

import (
	"context"
	"errors"
	"fmt"
	"time"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/obs"
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

// Bitstate defaults and bounds (see Options.BitstateBits / Options.BitstateK).
const (
	// DefaultBitstateBits is the default log2 bit-array size: 2^27 bits =
	// 16 MiB, a hash factor of ~100 at 1.3M admitted states.
	DefaultBitstateBits = 27
	// DefaultBitstateK is the default number of hash functions per state
	// (Spin's default of 3 bits per state).
	DefaultBitstateK = 3
	// maxBitstateBits is the largest accepted log2 bit-array size (2^40
	// bits = 128 GiB).
	maxBitstateBits = 40
	// maxBitstateK is the largest accepted hash-function count.
	maxBitstateK = 8
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
	// BitstateBits is the log2 bit capacity of the bitstate store (≤ 0
	// means DefaultBitstateBits; above 40 is an error). Only
	// meaningful with StoreBitstate.
	BitstateBits int
	// BitstateK is the bitstate store's hash-function count (≤ 0 means
	// DefaultBitstateK; above 8 is an error). Only meaningful
	// with StoreBitstate.
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

// Validate checks the options that are bounded whatever the instance (the
// bitstate geometry), so a caller can reject them before any other work.
// Every entry point checks them too, before anything is allocated.
func (o Options) Validate() error {
	if o.BitstateBits > maxBitstateBits {
		return fmt.Errorf("verify: bitstate bits %d exceeds the maximum %d", o.BitstateBits, maxBitstateBits)
	}
	if o.BitstateK > maxBitstateK {
		return fmt.Errorf("verify: bitstate k %d exceeds the maximum %d", o.BitstateK, maxBitstateK)
	}
	return nil
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
