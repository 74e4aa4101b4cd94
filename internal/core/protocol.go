package core

import (
	"errors"
	"fmt"

	"stateless/internal/graph"
)

// Reaction is a node's reaction function δ_i. It receives the labels of the
// node's incoming edges (in the canonical graph.In order) and the node's
// private input bit, and writes the labels of the node's outgoing edges
// (canonical graph.Out order) into out, returning the node's output bit.
//
// Contract: a Reaction must be a pure, deterministic function of (in,
// input). It must not retain in or out across calls and must not observe
// its own previous outgoing labels — that is exactly the statelessness
// restriction of the model (the internal/stateful package relaxes it).
// len(out) is the node's out-degree; implementations must fill every entry.
type Reaction func(in []Label, input Bit, out []Label) Bit

// SymmetricReaction is the reaction shape of a fully symmetric protocol:
// it sees the incoming labels as a multiset (the wrapper sorts them before
// every call, so the function cannot depend on their order even by
// accident) and broadcasts one label on every outgoing edge. Many natural
// self-stabilizing protocols — OR/max diffusion, BFS distance relaxation —
// have this shape.
type SymmetricReaction func(in []Label, input Bit) (Label, Bit)

// Protocol is a stateless protocol A = (Σ, δ) on a fixed graph: the label
// space plus one reaction function per node.
type Protocol struct {
	g     *graph.Graph
	space LabelSpace
	// shared is the one reaction of a uniform protocol; reactions holds one
	// per node otherwise (and is nil when shared is set).
	shared    Reaction
	reactions []Reaction
	uniform   bool
	symmetric bool
}

// Construction errors.
var (
	ErrReactionCount = errors.New("core: need exactly one reaction per node")
	ErrNilReaction   = errors.New("core: nil reaction function")
	ErrNilGraph      = errors.New("core: nil graph")
)

// NewProtocol builds a protocol from a graph, a label space, and one
// reaction per node (reactions[i] is δ_i).
func NewProtocol(g *graph.Graph, space LabelSpace, reactions []Reaction) (*Protocol, error) {
	if err := checkShape(g, space); err != nil {
		return nil, err
	}
	if len(reactions) != g.N() {
		return nil, fmt.Errorf("%w: got %d for n=%d", ErrReactionCount, len(reactions), g.N())
	}
	for i, r := range reactions {
		if r == nil {
			return nil, fmt.Errorf("%w: node %d", ErrNilReaction, i)
		}
	}
	return &Protocol{
		g:         g,
		space:     space,
		reactions: append([]Reaction(nil), reactions...),
	}, nil
}

// checkShape validates the arguments every constructor shares.
func checkShape(g *graph.Graph, space LabelSpace) error {
	if g == nil {
		return ErrNilGraph
	}
	if space.Size() == 0 {
		return ErrEmptySpace
	}
	return nil
}

// NewUniformProtocol builds a protocol in which every node runs the same
// reaction function. The protocol stores r once, not once per node.
func NewUniformProtocol(g *graph.Graph, space LabelSpace, r Reaction) (*Protocol, error) {
	if err := checkShape(g, space); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, ErrNilReaction
	}
	return &Protocol{g: g, space: space, shared: r, uniform: true}, nil
}

// NewSymmetricProtocol builds a node-uniform protocol whose shared reaction
// is symmetric: order-blind in its in-labels and broadcasting one label on
// all out-edges. The wrapper enforces both halves of the declaration — the
// in-buffer is sorted before r sees it and r's single result label is
// copied to every out slot — so Symmetric() is sound by construction, not
// by trust.
//
// Why this matters: such a reaction commutes with EVERY automorphism π of
// the graph, not just the order-preserving ones. Under the relabeling
// ℓ^π(π_E(e)) = ℓ(e), node π(v) receives exactly v's in-multiset (π_E maps
// In(v) onto In(π(v)) as sets, and sorting erases the order), so it
// computes v's old result and broadcasts it onto π_E(Out(v)) — the image of
// v's old out-assignment. Executions therefore map to executions under the
// full automorphism group, which is what lets internal/explore quotient by
// dihedral, hypercube, and torus groups instead of the ≤ n order-preserving
// elements.
func NewSymmetricProtocol(g *graph.Graph, space LabelSpace, r SymmetricReaction) (*Protocol, error) {
	if r == nil {
		return nil, ErrNilReaction
	}
	p, err := NewUniformProtocol(g, space, func(in []Label, input Bit, out []Label) Bit {
		// Insertion sort: in-degrees are tiny and the buffer is usually
		// nearly sorted, so this stays allocation-free and cheap.
		for i := 1; i < len(in); i++ {
			l := in[i]
			j := i - 1
			for j >= 0 && in[j] > l {
				in[j+1] = in[j]
				j--
			}
			in[j+1] = l
		}
		label, y := r(in, input)
		for i := range out {
			out[i] = label
		}
		return y
	})
	if err != nil {
		return nil, err
	}
	p.symmetric = true
	return p, nil
}

// Symmetric reports whether the protocol was built with
// NewSymmetricProtocol: every node runs the same order-blind broadcast
// reaction. Symmetric protocols commute with the full automorphism group of
// their graph (see NewSymmetricProtocol), and their states-graph analysis
// may restrict seeding to per-node-uniform labelings (see internal/verify).
func (p *Protocol) Symmetric() bool { return p.symmetric }

// Uniform reports whether the protocol was built with NewUniformProtocol,
// i.e. every node provably runs the same reaction function. Symmetry
// quotienting (internal/explore) uses this as its soundness gate: only a
// node-uniform protocol is guaranteed to commute with the graph's
// order-preserving automorphisms. Closures cannot be compared, so protocols
// built via NewProtocol report false even if their reactions happen to be
// identical.
func (p *Protocol) Uniform() bool { return p.uniform }

// Graph returns the protocol's graph.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// Space returns the protocol's label space Σ.
func (p *Protocol) Space() LabelSpace { return p.space }

// LabelBits returns the label complexity L_n (§2.3).
func (p *Protocol) LabelBits() int { return p.space.Bits() }

// React applies node v's reaction function to the incoming labels drawn
// from the global labeling l, writing v's new outgoing labels into out
// (which must have length OutDegree(v)) and returning v's output bit.
// The in-labels are gathered into the first InDegree(v) entries of inBuf,
// which may be longer (a max-degree buffer); callers reuse buffers to keep
// stepping allocation-free.
func (p *Protocol) React(v graph.NodeID, l Labeling, input Bit, inBuf, out []Label) Bit {
	ids := p.g.In(v)
	in := inBuf[:len(ids)]
	for i, id := range ids {
		in[i] = l[id]
	}
	if p.shared != nil {
		return p.shared(in, input, out)
	}
	return p.reactions[v](in, input, out)
}
