// Package async executes stateless protocols with real concurrency: one
// goroutine per processor, coordinated by a two-phase step protocol that
// preserves the model's semantics (all nodes activated at step t react to
// the pre-step labeling). It exists to demonstrate that the reference
// simulator (internal/sim) and a genuinely concurrent execution agree —
// the model's global transition function is exactly what a distributed
// implementation computes.
//
// Lifecycle follows the managed-goroutine discipline: New spawns the
// workers, Close signals them to stop and waits for them to exit; no
// fire-and-forget goroutines.
package async

import (
	"errors"
	"fmt"
	"sync"

	"stateless/internal/core"
	"stateless/internal/graph"
)

// Runtime drives a protocol with one goroutine per node.
type Runtime struct {
	p *core.Protocol
	x core.Input

	labels  core.Labeling // committed labels; written only between rounds
	outputs []core.Bit

	workers []*worker
	wg      sync.WaitGroup
	closed  bool
}

// worker is one processor goroutine. It receives activation requests,
// computes its reaction against the committed labels (safe to read
// concurrently during the compute phase — commits happen only after all
// workers of the round reply), and sends the result back.
type worker struct {
	id      graph.NodeID
	reqs    chan struct{}
	replies chan reply
	stop    chan struct{}
}

type reply struct {
	out    []core.Label
	output core.Bit
}

// New builds a runtime for protocol p on input x with initial labeling l0
// and starts the node goroutines.
func New(p *core.Protocol, x core.Input, l0 core.Labeling) (*Runtime, error) {
	g := p.Graph()
	if len(x) != g.N() {
		return nil, errors.New("async: input length mismatch")
	}
	if len(l0) != g.M() {
		return nil, errors.New("async: labeling length mismatch")
	}
	for i, l := range l0 {
		if !p.Space().Contains(l) {
			// l0 must be a configuration in Σ^E: reactions are defined
			// only on Σ, and the reference simulator this runtime is
			// checked against (internal/sim) keys its cycle detection on
			// packed labelings, which are injective only on Σ.
			return nil, fmt.Errorf("async: l0[%d] = %d outside %v", i, l, p.Space())
		}
	}
	r := &Runtime{
		p:       p,
		x:       x,
		labels:  l0.Clone(),
		outputs: make([]core.Bit, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		w := &worker{
			id:      graph.NodeID(v),
			reqs:    make(chan struct{}),
			replies: make(chan reply),
			stop:    make(chan struct{}),
		}
		r.workers = append(r.workers, w)
		r.wg.Add(1)
		go r.runWorker(w)
	}
	return r, nil
}

func (r *Runtime) runWorker(w *worker) {
	defer r.wg.Done()
	g := r.p.Graph()
	in := make([]core.Label, g.InDegree(w.id))
	for {
		select {
		case <-w.stop:
			return
		case <-w.reqs:
			out := make([]core.Label, g.OutDegree(w.id))
			y := r.p.React(w.id, r.labels, r.x[w.id], in, out)
			select {
			case w.replies <- reply{out: out, output: y}:
			case <-w.stop:
				return
			}
		}
	}
}

// Step activates the given nodes concurrently and commits their new
// outgoing labels atomically with respect to the round. Returns true if
// any label changed.
func (r *Runtime) Step(active []graph.NodeID) (bool, error) {
	if r.closed {
		return false, errors.New("async: runtime is closed")
	}
	// Phase 1: dispatch. Workers read committed labels concurrently.
	for _, v := range active {
		r.workers[v].reqs <- struct{}{}
	}
	// Phase 2: collect every reply first — only once all workers of the
	// round have finished reading the committed labels is it safe to write.
	reps := make([]reply, len(active))
	for i, v := range active {
		reps[i] = <-r.workers[v].replies
	}
	// Phase 3: commit.
	g := r.p.Graph()
	changed := false
	for i, v := range active {
		for k, id := range g.Out(v) {
			if r.labels[id] != reps[i].out[k] {
				changed = true
			}
			r.labels[id] = reps[i].out[k]
		}
		r.outputs[v] = reps[i].output
	}
	return changed, nil
}

// Labels returns a copy of the committed labeling.
func (r *Runtime) Labels() core.Labeling { return r.labels.Clone() }

// Outputs returns a copy of the node outputs.
func (r *Runtime) Outputs() []core.Bit { return append([]core.Bit(nil), r.outputs...) }

// Close stops all node goroutines and waits for them to exit. Safe to call
// twice.
func (r *Runtime) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, w := range r.workers {
		close(w.stop)
	}
	r.wg.Wait()
}

// Verify runs both the concurrent runtime and the reference simulator on
// identical (protocol, input, labeling, schedule script) quadruples and
// reports the first divergence, if any — the model/runtime agreement check
// used by experiment E12.
func Verify(p *core.Protocol, x core.Input, l0 core.Labeling, script [][]graph.NodeID, steps int) error {
	rt, err := New(p, x, l0)
	if err != nil {
		return err
	}
	defer rt.Close()
	g := p.Graph()
	cur := core.NewConfig(g, l0)
	next := cur.Clone()
	for t := 0; t < steps; t++ {
		active := script[t%len(script)]
		if _, err := rt.Step(active); err != nil {
			return err
		}
		core.Step(p, x, cur, &next, active)
		cur, next = next, cur
		if !cur.Labels.Equal(rt.labels) {
			return fmt.Errorf("async: divergence from reference at step %d", t+1)
		}
	}
	return nil
}
