// Package almoststateless explores the paper's §7 future-work item (2):
// "almost stateless" computation, where each node carries a constant
// number of private memory bits alongside its reaction function.
//
// The package quantifies the gap to pure statelessness in both directions:
//
//   - Separation: a single isolated node with one memory bit can oscillate
//     (a clock), while a stateless node with no incoming edges is a
//     constant function and stabilizes in one step — memory is strictly
//     stronger at n = 1 (and stateless clocks need the ring constructions
//     of Claim 5.5).
//   - Collapse: on cliques, a k-bit almost-stateless protocol folds into a
//     stateful protocol over Σ × M (memory rides along in the label), and
//     Theorem B.14's metanode construction then yields a *pure stateless*
//     protocol on K_{3n} with the same stabilization behaviour — so
//     constant memory buys nothing against 3× nodes and |Σ|·2^k labels.
//
// Like internal/stateful, protocols here live on cliques with same-label-
// to-all-neighbors emission, the setting of Theorem B.14.
package almoststateless

import (
	"errors"
	"fmt"

	"stateless/internal/core"
	"stateless/internal/stateful"
)

// Reaction maps the global label configuration plus the node's private
// memory to a new emitted label and new memory.
type Reaction func(labels []core.Label, mem core.Label) (out, newMem core.Label)

// Protocol is an almost-stateless protocol on K_n: per-node reactions with
// MemSize memory states each (MemSize = 2^k for k memory bits).
type Protocol struct {
	N         int
	LabelSize uint64
	MemSize   uint64
	Reactions []Reaction
}

// Validate checks structural well-formedness.
func (p *Protocol) Validate() error {
	if p.N < 1 || len(p.Reactions) != p.N {
		return errors.New("almoststateless: need one reaction per node")
	}
	if p.LabelSize == 0 || p.MemSize == 0 {
		return errors.New("almoststateless: empty label or memory space")
	}
	for i, r := range p.Reactions {
		if r == nil {
			return fmt.Errorf("almoststateless: nil reaction at node %d", i)
		}
	}
	return nil
}

// MemoryBits returns ⌈log₂ MemSize⌉, the per-node memory budget.
func (p *Protocol) MemoryBits() int {
	bits := 0
	for v := p.MemSize - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// Config is a global configuration: emitted labels plus private memories.
type Config struct {
	Labels []core.Label
	Mems   []core.Label
}

// Clone deep-copies.
func (c Config) Clone() Config {
	return Config{
		Labels: append([]core.Label(nil), c.Labels...),
		Mems:   append([]core.Label(nil), c.Mems...),
	}
}

// Step applies the activated nodes' reactions to the pre-step
// configuration.
func (p *Protocol) Step(cur Config, active []int) Config {
	next := cur.Clone()
	for _, i := range active {
		out, mem := p.Reactions[i](cur.Labels, cur.Mems[i])
		next.Labels[i] = out
		next.Mems[i] = mem
	}
	return next
}

// ToStateful folds the memory into the emitted label: the stateful
// protocol's label space is Σ' = Σ × M, each node publishing (label, mem)
// and recovering its own memory from its own published label — legal for
// stateful protocols, which read their own outgoing labels. Stabilization
// behaviour is preserved exactly (the two systems are bisimilar under the
// projection (label, mem) ↔ label').
func (p *Protocol) ToStateful() (*stateful.Protocol, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ls, ms := p.LabelSize, p.MemSize
	sp := &stateful.Protocol{
		N:         p.N,
		Size:      ls * ms,
		Reactions: make([]func([]core.Label) core.Label, p.N),
	}
	for i := 0; i < p.N; i++ {
		i := i
		react := p.Reactions[i]
		sp.Reactions[i] = func(labels []core.Label) core.Label {
			plain := make([]core.Label, len(labels))
			for j, l := range labels {
				plain[j] = (l % core.Label(ls*ms)) % core.Label(ls)
			}
			mem := (labels[i] % core.Label(ls*ms)) / core.Label(ls)
			out, newMem := react(plain, mem)
			return out%core.Label(ls) + (newMem%core.Label(ms))*core.Label(ls)
		}
	}
	return sp, nil
}

// ToStateless composes ToStateful with Theorem B.14's metanode
// construction: a pure stateless protocol on K_{3n} over Σ·M + 1 labels
// whose label r-stabilization matches the almost-stateless original's.
func (p *Protocol) ToStateless() (*core.Protocol, error) {
	sp, err := p.ToStateful()
	if err != nil {
		return nil, err
	}
	return stateful.Metanode(sp)
}

// LiftConfig maps an almost-stateless configuration to the stateful
// protocol's configuration (and, composed with stateful.MetanodeStart, to
// the stateless protocol's labeling). A run of the almost-stateless
// protocol is stateful.RunSynchronous of ToStateful on the lifted
// configuration: stability there means no label and no memory changes.
func (p *Protocol) LiftConfig(c Config) ([]core.Label, error) {
	if len(c.Labels) != p.N || len(c.Mems) != p.N {
		return nil, errors.New("almoststateless: bad config shape")
	}
	out := make([]core.Label, p.N)
	for i := range out {
		if uint64(c.Labels[i]) >= p.LabelSize {
			return nil, fmt.Errorf("almoststateless: init label %d = %d outside Σ of size %d", i, c.Labels[i], p.LabelSize)
		}
		if uint64(c.Mems[i]) >= p.MemSize {
			return nil, fmt.Errorf("almoststateless: init memory %d = %d outside M of size %d", i, c.Mems[i], p.MemSize)
		}
		out[i] = c.Labels[i] + c.Mems[i]*core.Label(p.LabelSize)
	}
	return out, nil
}

// ToggleClock returns the canonical separation witness: n nodes, each with
// one memory bit that flips every activation and is emitted as the label.
// It never label-stabilizes — while *any* deterministic stateless protocol
// on a single isolated node is constant after one activation.
func ToggleClock(n int) (*Protocol, error) {
	if n < 1 {
		return nil, errors.New("almoststateless: need n ≥ 1")
	}
	p := &Protocol{N: n, LabelSize: 2, MemSize: 2, Reactions: make([]Reaction, n)}
	for i := range p.Reactions {
		p.Reactions[i] = func(_ []core.Label, mem core.Label) (core.Label, core.Label) {
			return mem, 1 - mem
		}
	}
	return p, nil
}

// ModCounter returns an n-node protocol in which node 0 counts mod `mod`
// in its ⌈log mod⌉ memory bits and broadcasts the count; other nodes copy.
// A stateless protocol needs the Claim 5.6 ring machinery (and an odd
// ring!) for the same job; one node with memory trivializes it.
func ModCounter(n int, mod uint64) (*Protocol, error) {
	if n < 1 || mod < 2 {
		return nil, errors.New("almoststateless: need n ≥ 1, mod ≥ 2")
	}
	p := &Protocol{N: n, LabelSize: mod, MemSize: mod, Reactions: make([]Reaction, n)}
	p.Reactions[0] = func(_ []core.Label, mem core.Label) (core.Label, core.Label) {
		next := (mem + 1) % core.Label(mod)
		return mem % core.Label(mod), next
	}
	for i := 1; i < n; i++ {
		p.Reactions[i] = func(labels []core.Label, mem core.Label) (core.Label, core.Label) {
			return labels[0] % core.Label(mod), mem
		}
	}
	return p, nil
}
