// Package stateless is a Go library for stateless, self-stabilizing
// distributed computation, reproducing "Stateless Computation" (Dolev,
// Erdmann, Lutz, Schapira, Zair — PODC 2017).
//
// In the model, processors have no internal state: each node is a reaction
// function δ_i : Σ^{-i} × {0,1} → Σ^{+i} × {0,1} mapping the labels of its
// incoming edges plus a private input bit to labels on its outgoing edges
// plus an output bit. An adversarial r-fair schedule chooses which nodes
// react at each step. The library provides:
//
//   - the core model (graphs, label spaces, protocols, schedules) and a
//     deterministic simulator with label/output-stabilization detection;
//   - an exhaustive verifier for r-stabilization of small protocols (the
//     states-graph from Theorem 3.1's proof);
//   - the paper's constructions: Example 1's clique protocol, the generic
//     Proposition 2.3 protocol, the Claim 5.5/5.6 self-stabilizing ring
//     counters, the Theorem 5.2 branching-program ⇄ unidirectional-ring
//     compilers, and the Theorem 5.4 circuit → bidirectional-ring compiler;
//   - the hardness gadgets of Theorems 4.1 and 4.2 (snake-in-the-box
//     protocols, String-Oscillation, the metanode reduction);
//   - lower-bound tooling (fooling sets, the Theorem 6.2 cut bound, the
//     Theorem 5.10 counting bound);
//   - best-response applications (BGP / Stable Paths, contagion) and a
//     discrete-event runtime with fault injection for million-node runs.
//
// This package is a façade re-exporting the most commonly used types and
// constructors; the full API lives in the internal packages and is
// exercised end-to-end by the examples/ directory and bench_test.go.
package stateless

import (
	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

// Core model types.
type (
	// NodeID identifies a processor.
	NodeID = graph.NodeID
	// EdgeID indexes an edge within a graph.
	EdgeID = graph.EdgeID
	// Edge is a directed edge.
	Edge = graph.Edge
	// Graph is an immutable directed graph.
	Graph = graph.Graph
	// Label is an edge label, an element of a finite label space.
	Label = core.Label
	// Bit is a value in {0,1}.
	Bit = core.Bit
	// LabelSpace is the finite label alphabet Σ.
	LabelSpace = core.LabelSpace
	// Labeling is a global labeling ℓ ∈ Σ^E.
	Labeling = core.Labeling
	// Input is a global input assignment.
	Input = core.Input
	// Config is a labeling plus the nodes' last outputs.
	Config = core.Config
	// Reaction is a node's reaction function δ_i.
	Reaction = core.Reaction
	// Protocol is a stateless protocol A = (Σ, δ).
	Protocol = core.Protocol
	// Schedule decides which nodes activate at each time step.
	Schedule = schedule.Schedule
	// Result reports how a simulation ended.
	Result = sim.Result
	// Options configures a simulation run.
	Options = sim.Options
	// Status classifies a run's end state.
	Status = sim.Status
)

// Run outcomes.
const (
	LabelStable  = sim.LabelStable
	OutputStable = sim.OutputStable
	Oscillating  = sim.Oscillating
	Exhausted    = sim.Exhausted
)

// Graph constructors.
var (
	// NewGraph builds a directed graph from an edge list.
	NewGraph = graph.New
	// Ring is the unidirectional n-ring.
	Ring = graph.Ring
	// BidirectionalRing is the bidirectional n-ring.
	BidirectionalRing = graph.BidirectionalRing
	// Clique is the complete directed graph K_n.
	Clique = graph.Clique
	// Star is the bidirectional star.
	Star = graph.Star
	// Path is the bidirectional path.
	Path = graph.Path
	// Torus is the bidirectional torus grid.
	Torus = graph.Torus
	// Hypercube is the bidirectional d-cube.
	Hypercube = graph.Hypercube
	// RandomStronglyConnected samples a random strongly connected graph.
	RandomStronglyConnected = graph.RandomStronglyConnected
)

// Model constructors.
var (
	// NewLabelSpace returns Σ = {0..size-1}.
	NewLabelSpace = core.NewLabelSpace
	// BinarySpace is Σ = {0,1}.
	BinarySpace = core.BinarySpace
	// NewProtocol builds a protocol from per-node reactions.
	NewProtocol = core.NewProtocol
	// NewUniformProtocol gives every node the same reaction.
	NewUniformProtocol = core.NewUniformProtocol
	// UniformLabeling assigns one label to every edge.
	UniformLabeling = core.UniformLabeling
	// RandomLabeling samples an arbitrary (adversarial) labeling.
	RandomLabeling = core.RandomLabeling
	// InputFromUint unpacks an integer into an input vector.
	InputFromUint = core.InputFromUint
	// IsStable reports whether a labeling is a global fixed point.
	IsStable = core.IsStable
	// BitOf converts a bool to a Bit.
	BitOf = core.BitOf
)

// Schedules.
type (
	// Synchronous activates every node at every step (1-fair).
	Synchronous = schedule.Synchronous
	// RoundRobin activates one node per step cyclically (n-fair).
	RoundRobin = schedule.RoundRobin
	// Scripted replays a fixed activation script cyclically.
	Scripted = schedule.Scripted
	// RandomRFair is a seeded random r-fair schedule.
	RandomRFair = schedule.RandomRFair
)

var (
	// NewScripted builds a scripted schedule.
	NewScripted = schedule.NewScripted
	// NewRandomRFair builds a seeded random r-fair schedule.
	NewRandomRFair = schedule.NewRandomRFair
	// NewFairnessAuditor checks r-fairness of observed activations.
	NewFairnessAuditor = schedule.NewAuditor
)

// Simulation entry points.
var (
	// Run executes a protocol under a schedule.
	Run = sim.Run
	// RunSynchronous runs under the synchronous schedule with cycle
	// detection — the setting of the paper's computational-power results.
	RunSynchronous = sim.RunSynchronous
	// RoundComplexity measures worst-case synchronous stabilization time.
	RoundComplexity = sim.RoundComplexity
)
