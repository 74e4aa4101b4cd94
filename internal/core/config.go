package core

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"stateless/internal/graph"
)

// Labeling is a global labeling ℓ ∈ Σ^E, indexed by graph.EdgeID.
type Labeling []Label

// Clone returns a deep copy.
func (l Labeling) Clone() Labeling { return append(Labeling(nil), l...) }

// Equal reports whether two labelings are identical.
func (l Labeling) Equal(other Labeling) bool {
	if len(l) != len(other) {
		return false
	}
	for i := range l {
		if l[i] != other[i] {
			return false
		}
	}
	return true
}

// Key returns a hashable string representation (8 bytes per edge). The
// state-space engines no longer key on it — they intern packed encodings
// via internal/enc, which allocate nothing per state — but it remains a
// convenient exact key for tests and ad-hoc tooling.
func (l Labeling) Key() string {
	buf := make([]byte, 8*len(l))
	for i, v := range l {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return string(buf)
}

// UniformLabeling returns the labeling assigning label v to every edge.
func UniformLabeling(g *graph.Graph, v Label) Labeling {
	l := make(Labeling, g.M())
	for i := range l {
		l[i] = v
	}
	return l
}

// RandomLabeling returns a labeling drawn uniformly from Σ^E — the
// arbitrary (adversarial) initial configuration that self-stabilization
// quantifies over.
func RandomLabeling(g *graph.Graph, space LabelSpace, rng *rand.Rand) Labeling {
	l := make(Labeling, g.M())
	for i := range l {
		l[i] = Label(rng.Uint64N(space.Size()))
	}
	return l
}

// Config is a global configuration: the labeling plus each node's last
// output bit. Outputs are not part of the transition's domain (the model is
// stateless) but are tracked for output-stabilization.
type Config struct {
	Labels  Labeling
	Outputs []Bit
}

// NewConfig returns a configuration with the given labeling and all-zero
// outputs.
func NewConfig(g *graph.Graph, l Labeling) Config {
	return Config{Labels: l.Clone(), Outputs: make([]Bit, g.N())}
}

// Clone deep-copies the configuration.
func (c Config) Clone() Config {
	return Config{
		Labels:  c.Labels.Clone(),
		Outputs: append([]Bit(nil), c.Outputs...),
	}
}

// Input is a global input assignment (x_1, ..., x_n) ∈ {0,1}^n.
type Input []Bit

// InputFromUint encodes the low n bits of v as an input vector, x_i = bit i.
// Convenient for exhaustive sweeps over {0,1}^n.
func InputFromUint(v uint64, n int) Input {
	in := make(Input, n)
	for i := 0; i < n; i++ {
		in[i] = Bit((v >> i) & 1)
	}
	return in
}

// Uint encodes the input vector back into an integer (inverse of
// InputFromUint).
func (x Input) Uint() uint64 {
	var v uint64
	for i, b := range x {
		if b != 0 {
			v |= 1 << i
		}
	}
	return v
}

// String renders the input as a bitstring x_1 x_2 ... x_n.
func (x Input) String() string {
	buf := make([]byte, len(x))
	for i, b := range x {
		buf[i] = '0' + byte(b)
	}
	return string(buf)
}

// Step applies the global transition function δ(ℓ, x, T): every node in
// active applies its reaction function to the *pre-step* labeling cur,
// writing its outgoing labels and output into next. Nodes not in active
// keep their labels and outputs. cur and next must be distinct
// configurations of the right shape; Step never reads next.
//
// Returns true if next differs from cur on some label (used for cheap
// fixed-point detection).
func Step(p *Protocol, x Input, cur Config, next *Config, active []graph.NodeID) bool {
	g := p.Graph()
	copy(next.Labels, cur.Labels)
	copy(next.Outputs, cur.Outputs)
	changed := false
	var inBuf [64]Label
	var outBuf [64]Label
	for _, v := range active {
		in := inScratch(inBuf[:0], g.InDegree(v))
		out := inScratch(outBuf[:0], g.OutDegree(v))
		y := p.React(v, cur.Labels, x[v], in, out)
		next.Outputs[v] = y
		for i, id := range g.Out(v) {
			if next.Labels[id] != out[i] {
				next.Labels[id] = out[i]
				changed = true
			}
		}
	}
	return changed
}

// inScratch returns a slice of length n backed by buf when it fits,
// otherwise a fresh allocation (nodes of degree > 64).
func inScratch(buf []Label, n int) []Label {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]Label, n)
}

// Stepper applies global transitions with reusable reaction buffers.
// Step's stack scratch escapes through the reaction closures (two heap
// allocations per call), which dominates the profile of state-space
// search; a Stepper allocates its buffers once, so the verifier's
// exploration and the simulator's stepping loop run allocation-free. A
// Stepper is not safe for concurrent use — give each worker its own.
type Stepper struct {
	p   *Protocol
	in  []Label
	out []Label
}

// NewStepper returns a Stepper for p with buffers sized to its maximum
// degree (in+out, which bounds either side).
func NewStepper(p *Protocol) *Stepper {
	d := p.Graph().MaxDegree()
	return &Stepper{p: p, in: make([]Label, d), out: make([]Label, d)}
}

// Step is Step with the Stepper's protocol and reusable buffers.
func (s *Stepper) Step(x Input, cur Config, next *Config, active []graph.NodeID) bool {
	g := s.p.Graph()
	copy(next.Labels, cur.Labels)
	copy(next.Outputs, cur.Outputs)
	changed := false
	for _, v := range active {
		ids := g.Out(v)
		out := s.out[:len(ids)]
		next.Outputs[v] = s.p.React(v, cur.Labels, x[v], s.in, out)
		for i, id := range ids {
			if next.Labels[id] != out[i] {
				next.Labels[id] = out[i]
				changed = true
			}
		}
	}
	return changed
}

// Reactions evaluates every node's reaction against the pre-step labeling
// once, writing node v's out-going edge labels into labels (indexed by
// EdgeID; every edge is written, since every edge has exactly one source)
// and its output bit into outs (indexed by NodeID). δ_i is a pure function
// of the pre-step labeling (the statelessness contract), so these n values
// determine the successor under every activation set: Step(T) keeps cur
// outside T's out-edges and outputs and takes the reacted values inside.
// The states-graph verifier (internal/verify) builds all 2^n − 1
// successors of a state from them by bit-patching its packed words, without
// materializing a configuration per activation set.
//
// Not safe for concurrent use (shares the Stepper's buffers).
func (s *Stepper) Reactions(x Input, cur Config, labels []Label, outs []Bit) {
	g := s.p.Graph()
	for v := 0; v < g.N(); v++ {
		node := graph.NodeID(v)
		ids := g.Out(node)
		out := s.out[:len(ids)]
		outs[v] = s.p.React(node, cur.Labels, x[node], s.in, out)
		for i, id := range ids {
			labels[id] = out[i]
		}
	}
}

// IsStable is IsStable with the Stepper's reusable buffers.
func (s *Stepper) IsStable(x Input, l Labeling) bool {
	g := s.p.Graph()
	for v := 0; v < g.N(); v++ {
		node := graph.NodeID(v)
		ids := g.Out(node)
		out := s.out[:len(ids)]
		s.p.React(node, l, x[v], s.in, out)
		for i, id := range ids {
			if l[id] != out[i] {
				return false
			}
		}
	}
	return true
}

// IsStable reports whether ℓ is a stable labeling for (p, x): a fixed point
// of every reaction function δ_i (Section 3). Outputs are ignored, matching
// the paper's definition of a stable labeling.
func IsStable(p *Protocol, x Input, l Labeling) bool {
	g := p.Graph()
	var inBuf, outBuf [64]Label
	for v := 0; v < g.N(); v++ {
		node := graph.NodeID(v)
		in := inScratch(inBuf[:0], g.InDegree(node))
		out := inScratch(outBuf[:0], g.OutDegree(node))
		p.React(node, l, x[v], in, out)
		for i, id := range g.Out(node) {
			if l[id] != out[i] {
				return false
			}
		}
	}
	return true
}

// StableOutputs returns the node outputs at a stable labeling (each node's
// reaction applied once to ℓ). Only meaningful when IsStable(p, x, l).
func StableOutputs(p *Protocol, x Input, l Labeling) []Bit {
	g := p.Graph()
	outs := make([]Bit, g.N())
	var inBuf, outBuf [64]Label
	for v := 0; v < g.N(); v++ {
		node := graph.NodeID(v)
		in := inScratch(inBuf[:0], g.InDegree(node))
		out := inScratch(outBuf[:0], g.OutDegree(node))
		outs[v] = p.React(node, l, x[v], in, out)
	}
	return outs
}

// Validate checks that every label produced by every reaction on the given
// configuration stays inside Σ; used by tests as a protocol sanity check.
func Validate(p *Protocol, x Input, l Labeling) error {
	g := p.Graph()
	for _, lab := range l {
		if !p.Space().Contains(lab) {
			return fmt.Errorf("core: labeling contains %d outside %v", lab, p.Space())
		}
	}
	var inBuf, outBuf [64]Label
	for v := 0; v < g.N(); v++ {
		node := graph.NodeID(v)
		in := inScratch(inBuf[:0], g.InDegree(node))
		out := inScratch(outBuf[:0], g.OutDegree(node))
		p.React(node, l, x[v], in, out)
		for _, lab := range out {
			if !p.Space().Contains(lab) {
				return fmt.Errorf("core: node %d emits %d outside %v", v, lab, p.Space())
			}
		}
	}
	return nil
}
