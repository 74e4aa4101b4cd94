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
//
// One file per stage:
//   - verify.go: this overview and the public checks (LabelRStabilizing,
//     OutputRStabilizing).
//   - options.go: Options, store and symmetry modes, Decision, Witness.
//   - stable.go: the stable-labeling sweeps over Σ^E and Σ^n.
//   - explorer.go: one search's shared state, Σ^n/Σ^E seeding, the engine
//     run, and the bitstate violation record and its checkpoint payload.
//   - expand.go: the per-worker successor expander (subset DP).
//   - edgelog.go: the edge log, the only code that knows its entry format.
//   - analysis.go: rank, SCC (which decides the verdict), violating SCCs,
//     witness, and the decision.
package verify

import "stateless/internal/core"

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
