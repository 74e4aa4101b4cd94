// Package des is a discrete-event simulation runtime for stateless
// protocols at scales the synchronous-rounds simulator (internal/sim)
// cannot reach. Instead of touching every node every round, the runtime
// keeps a queue of pending activation events and an O(1) dirty flag per
// node: a node is scheduled only while it is *dirty* (some in-edge label
// changed since it last reacted, one of its out-edges was corrupted, or it
// just rejoined after a crash), so quiescent nodes cost nothing — a
// million-node ring with a localized fault processes a handful of events,
// not a million per round.
//
// Virtual time is measured in integer ticks with TicksPerRound ticks per
// synchronous round. Activation times are chosen by a Daemon (the paper's
// activation adversary): Synchronous reproduces internal/sim's rounds
// exactly (all events land on round boundaries, and events sharing a tick
// form one simultaneous activation set applied against the pre-step
// labeling, matching core.Step's set semantics), Poisson and Bursty model
// stochastic fault processes, and AdversarialGreedy delays productive
// activations as long as its fairness bound allows. Every source of
// randomness is a threaded rand.Source seed, so runs are bit-reproducible.
//
// The event queue pops events in (tick, seq) order, seq being push order.
// It is a timing wheel with one bucket per tick over [now, now+wheelSpan)
// and a bitmap to find the next non-empty tick, so a push or pop costs
// O(1); the rare event scheduled wheelSpan or more ticks ahead waits in a
// binary (tick, seq) heap and moves into its bucket once the window reaches
// it. On a 2^18-node ring with up to 262k events pending, an activation
// costs about 100 ns (perfbench des-faults, traced, seed 1, 2-core box);
// one binary heap of every event made it about 2.2x slower, and adjacency
// kept as one small slice per node instead of graph.Graph's flat arrays
// about 1.25x slower.
//
// Fault injection (label corruption, node crash/rejoin) is scheduled on
// the same queue via ScheduleFault; the composable scenario layer on top
// lives in internal/workload.
package des

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/obs"
)

// TicksPerRound is the virtual-time granularity: one synchronous round
// spans this many ticks. Keeping rounds coarse lets stochastic daemons
// schedule sub-round activation offsets while the Synchronous daemon stays
// exactly on round boundaries.
const TicksPerRound = 1024

// ErrCanceled is returned by Run when its context is canceled; it wraps
// the context error, so errors.Is works against both (parity with
// explore.ErrCanceled and sim.ErrCanceled).
var ErrCanceled = errors.New("des: run canceled")

// Daemon chooses activation delays: when node v becomes dirty at rt.Now(),
// the runtime schedules its activation Delay ticks later (clamped to ≥ 1).
// A dirty node keeps its already-scheduled event even if more of its
// inputs change, so Delay also bounds the node's activation latency.
// Implementations must be deterministic functions of their construction
// parameters (seeded randomness included).
type Daemon interface {
	Delay(rt *Runtime, v graph.NodeID) uint64
}

// Synchronous activates every dirty node at the next round boundary —
// the 1-fair schedule of the paper's Part II, and the daemon under which
// the runtime is step-for-step equivalent to sim.RunSynchronous (see the
// equivalence test in des_test.go).
type Synchronous struct{}

// Delay implements Daemon: the next multiple of TicksPerRound after now.
func (Synchronous) Delay(rt *Runtime, _ graph.NodeID) uint64 {
	return TicksPerRound - rt.Now()%TicksPerRound
}

// Poisson activates each dirty node after an exponentially distributed
// delay with mean 1/Rate rounds — the memoryless activation process of a
// node waking independently at rate Rate per round.
type Poisson struct {
	Rate float64
	Rng  *rand.Rand
}

// NewPoisson returns a Poisson daemon with the given activation rate per
// round (rate <= 0 means 1).
func NewPoisson(rate float64, seed uint64) *Poisson {
	if rate <= 0 {
		rate = 1
	}
	return &Poisson{Rate: rate, Rng: rand.New(rand.NewPCG(seed, seed^0xa5a5a5a55a5a5a5a))}
}

// Delay implements Daemon.
func (d *Poisson) Delay(_ *Runtime, _ graph.NodeID) uint64 {
	t := uint64(d.Rng.ExpFloat64() / d.Rate * TicksPerRound)
	if t == 0 {
		t = 1
	}
	return t
}

// Bursty is Poisson gated by an on/off duty cycle: activations only land
// inside busy windows of BusyRounds rounds separated by IdleRounds idle
// rounds, so dirt accumulated during an idle window discharges in a burst
// at the next window start — the bursty activation pattern of periodically
// congested networks.
type Bursty struct {
	BusyRounds, IdleRounds uint64
	inner                  *Poisson
}

// NewBursty returns a Bursty daemon (busy/idle <= 0 default to 1; rate is
// the in-window Poisson rate per round).
func NewBursty(busyRounds, idleRounds uint64, rate float64, seed uint64) *Bursty {
	if busyRounds == 0 {
		busyRounds = 1
	}
	if idleRounds == 0 {
		idleRounds = 1
	}
	return &Bursty{BusyRounds: busyRounds, IdleRounds: idleRounds, inner: NewPoisson(rate, seed)}
}

// Delay implements Daemon: a Poisson delay, pushed forward to the start of
// the next busy window when it lands in an idle one.
func (d *Bursty) Delay(rt *Runtime, v graph.NodeID) uint64 {
	target := rt.Now() + d.inner.Delay(rt, v)
	period := d.BusyRounds + d.IdleRounds
	phase := (target / TicksPerRound) % period
	if phase >= d.BusyRounds {
		target += (period - phase) * TicksPerRound
	}
	delta := target - rt.Now()
	if delta == 0 {
		delta = 1
	}
	return delta
}

// AdversarialGreedy is a progress-starving activation adversary bounded by
// an R-round fairness window: a dirty node whose activation would change
// some label (probed against the current labeling) is delayed the full R
// rounds, while no-op activations run at the next tick. Because every
// dirty node is scheduled within R rounds of becoming dirty and scheduled
// events always fire, no node starves — Result.MaxWaitTicks ≤ R·
// TicksPerRound, the property the starvation-bound test pins.
type AdversarialGreedy struct {
	// R is the fairness window in rounds (0 means 1).
	R uint64
}

// Delay implements Daemon.
func (d AdversarialGreedy) Delay(rt *Runtime, v graph.NodeID) uint64 {
	r := d.R
	if r == 0 {
		r = 1
	}
	if rt.WouldChange(v) {
		return r * TicksPerRound
	}
	return 1
}

// wheelSpan is the width W of the timing wheel in ticks: one bucket per
// tick of the window [now, now+W). It covers the adversarial daemon's
// FairR·TicksPerRound delay (4096 at R = 4) and all but about 1e-7 of
// Poisson delays at rate 1 (P[Exp(1) ≥ 16 rounds] = e^-16); later events
// wait in the overflow heap.
const wheelSpan = 1 << 14

const (
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// buckets is the timing wheel's bucket array. Allocating and clearing its
// 384 KiB of slice headers would cost more than a whole trial on a small
// graph, so a Runtime takes one from bucketPool at its first push and
// returns it, every bucket empty, when a Run drains the queue.
type buckets [wheelSpan][]int32

var bucketPool = sync.Pool{New: func() any { return new(buckets) }}

// event is one overflow-heap entry. node >= 0 is an activation of that
// node; node < 0 is the fault closure at index -(node+1). seq breaks time
// ties deterministically (heap order is (at, seq)). Wheel buckets hold the
// same node encoding as int32s, in push order.
type event struct {
	at   uint64
	seq  uint64
	node int64
}

// Config configures a Runtime.
type Config struct {
	// Metrics, when non-nil, receives the run's event/fault counters and
	// batch-size histogram. Recording happens once per Run, never in the
	// event loop.
	Metrics *obs.Registry
	// AssumeClean skips the initial all-nodes-dirty marking: the caller
	// asserts l0 is a fixed point, so only explicitly injected faults
	// create work. Used to measure fault locality (quiescent nodes must
	// cost nothing) and to resume from known-stable states.
	AssumeClean bool
}

// Result reports how a Run ended.
type Result struct {
	// Stabilized is true when the event queue drained: every node has
	// reacted to its latest inputs and fixed them, i.e. the labeling is a
	// fixed point of every reaction reachable from the run's dirt.
	Stabilized bool
	// StabilizedAt is the tick of the last label change (faults included);
	// 0 when no label ever changed.
	StabilizedAt uint64
	// LastFaultAt is the tick of the last injected fault (0 if none).
	LastFaultAt uint64
	// End is the tick of the last processed event.
	End uint64
	// Activations counts processed node activations (dropped crashed-node
	// events excluded); Reactions counts reaction evaluations including
	// daemon probes.
	Activations uint64
	Reactions   uint64
	// Faults counts fired fault events.
	Faults uint64
	// MaxHeap is the high-water mark of pending events, wheel and overflow
	// heap together. An event stops pending at its turn within its tick,
	// so the count is what one (tick, seq) heap of every pending event
	// would hold.
	MaxHeap int
	// MaxWaitTicks is the largest dirty-to-activation latency observed —
	// the empirical starvation bound of the daemon.
	MaxWaitTicks uint64
}

// Rounds converts a tick count to (fractional) rounds.
func Rounds(ticks uint64) float64 { return float64(ticks) / TicksPerRound }

// Runtime is a single-threaded discrete-event executor for one protocol
// instance. It is not safe for concurrent use; run independent trials on
// separate Runtimes (internal/workload does).
type Runtime struct {
	p      *core.Protocol
	g      *graph.Graph
	x      core.Input
	daemon Daemon

	labels  core.Labeling
	pending []bool
	// pendingAt[v] is the tick v became dirty (valid while pending[v]).
	pendingAt []uint64
	crashed   []bool

	// The event queue: a timing wheel of one bucket per tick over
	// [now, now+wheelSpan), with an occupancy bitmap, in front of a
	// (at, seq) binary heap holding the events at or past now+wheelSpan.
	// See push and advance for why this pops in exact (at, seq) order.
	wheel    *buckets // nil until the first push after New or a drained Run
	occupied [wheelWords]uint64
	inWheel  int
	heap     []event
	seq      uint64
	now      uint64

	faults    []func(*Runtime)
	numFaults uint64

	lastChange  uint64
	lastFault   uint64
	activations uint64
	reactions   uint64
	maxHeap     int
	maxWait     uint64

	// batch scratch, reused across ticks.
	batch     []graph.NodeID
	writeEdge []graph.EdgeID
	writeLab  []core.Label
	in, out   []core.Label

	metrics *obs.Registry
}

// New builds a runtime for protocol p on input x starting from labeling l0
// under the given daemon. Unless cfg.AssumeClean, every node starts dirty —
// the arbitrary-corruption start self-stabilization quantifies over.
func New(p *core.Protocol, x core.Input, l0 core.Labeling, daemon Daemon, cfg Config) (*Runtime, error) {
	if p == nil {
		return nil, errors.New("des: nil protocol")
	}
	if daemon == nil {
		return nil, errors.New("des: nil daemon")
	}
	g := p.Graph()
	if len(x) != g.N() {
		return nil, fmt.Errorf("des: input length %d, want %d nodes", len(x), g.N())
	}
	if len(l0) != g.M() {
		return nil, fmt.Errorf("des: labeling length %d, want %d edges", len(l0), g.M())
	}
	for i, l := range l0 {
		if !p.Space().Contains(l) {
			return nil, fmt.Errorf("des: l0[%d] = %d outside %v", i, l, p.Space())
		}
	}
	// Reaction scratch: in+out degree bounds either side.
	maxDeg := g.MaxDegree()
	rt := &Runtime{
		p:         p,
		g:         g,
		x:         x,
		daemon:    daemon,
		labels:    l0.Clone(),
		pending:   make([]bool, g.N()),
		pendingAt: make([]uint64, g.N()),
		crashed:   make([]bool, g.N()),
		in:        make([]core.Label, maxDeg),
		out:       make([]core.Label, maxDeg),
		metrics:   cfg.Metrics,
	}
	if !cfg.AssumeClean {
		for v := 0; v < g.N(); v++ {
			rt.MarkDirty(graph.NodeID(v))
		}
	}
	return rt, nil
}

// Now returns the current virtual time in ticks.
func (rt *Runtime) Now() uint64 { return rt.now }

// Labels returns the live labeling. Callers must not modify it; fault
// injectors use SetLabel so dirty propagation stays correct.
func (rt *Runtime) Labels() core.Labeling { return rt.labels }

// Graph returns the protocol's graph.
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Protocol returns the protocol under simulation.
func (rt *Runtime) Protocol() *core.Protocol { return rt.p }

// Crashed reports whether v is currently crashed.
func (rt *Runtime) Crashed(v graph.NodeID) bool { return rt.crashed[v] }

// WouldChange reports whether activating v now would change some out-edge
// label — the probe AdversarialGreedy steers by. Costs one reaction
// evaluation.
func (rt *Runtime) WouldChange(v graph.NodeID) bool {
	rt.reactions++
	ids := rt.g.Out(v)
	out := rt.out[:len(ids)]
	rt.p.React(v, rt.labels, rt.x[v], rt.in, out)
	for i, id := range ids {
		if rt.labels[id] != out[i] {
			return true
		}
	}
	return false
}

// MarkDirty schedules an activation for v per the daemon unless v is
// crashed or already pending — the O(1) dirty-node tracking: each node has
// at most one queued event, and clean (quiescent) nodes have none.
func (rt *Runtime) MarkDirty(v graph.NodeID) {
	if rt.pending[v] || rt.crashed[v] {
		return
	}
	rt.pending[v] = true
	rt.pendingAt[v] = rt.now
	d := rt.daemon.Delay(rt, v)
	if d == 0 {
		d = 1
	}
	rt.push(rt.now+d, int32(v))
}

// ScheduleFault schedules fn on the event queue at the absolute tick at
// (clamped to after now). Faults at a given tick run before that tick's
// activation batch, in scheduling order.
func (rt *Runtime) ScheduleFault(at uint64, fn func(*Runtime)) {
	if fn == nil {
		return
	}
	if at <= rt.now {
		at = rt.now + 1
	}
	rt.faults = append(rt.faults, fn)
	rt.push(at, -int32(len(rt.faults)))
}

// SetLabel overwrites edge id with l, marking both endpoints dirty: the
// reader must react to the corrupted value and the writer will want to
// restore its intended one. This is the label-corruption primitive of the
// fault injectors; it counts as one fault.
func (rt *Runtime) SetLabel(id graph.EdgeID, l core.Label) {
	rt.noteFault()
	rt.setLabel(id, l)
}

// setLabel is SetLabel without the fault accounting.
func (rt *Runtime) setLabel(id graph.EdgeID, l core.Label) {
	if rt.labels[id] == l {
		return
	}
	rt.labels[id] = l
	rt.lastChange = rt.now
	e := rt.g.Edge(id)
	rt.MarkDirty(e.From)
	rt.MarkDirty(e.To)
}

// CorruptNode resamples every out-edge label of v uniformly from Σ — the
// "k nodes corrupted at time t" burst primitive. Counts as one fault.
func (rt *Runtime) CorruptNode(v graph.NodeID, rng *rand.Rand) {
	rt.noteFault()
	size := rt.p.Space().Size()
	for _, id := range rt.g.Out(v) {
		rt.setLabel(id, core.Label(rng.Uint64N(size)))
	}
}

// Crash takes v down: its pending activation (if any) is dropped when it
// pops, it ignores input changes, and its out-labels freeze at their
// current (stale) values until Rejoin.
func (rt *Runtime) Crash(v graph.NodeID) {
	rt.noteFault()
	rt.crashed[v] = true
}

// RejoinMode selects the adversarially chosen state a node rejoins with.
type RejoinMode int

const (
	// RejoinResample draws every out-label uniformly from Σ.
	RejoinResample RejoinMode = iota
	// RejoinZero rejoins with all-zero out-labels.
	RejoinZero
	// RejoinStale keeps the pre-crash out-labels.
	RejoinStale
)

// Rejoin brings a crashed v back with the given out-label state, marking v
// and affected readers dirty. No-op if v is not crashed.
func (rt *Runtime) Rejoin(v graph.NodeID, mode RejoinMode, rng *rand.Rand) {
	if !rt.crashed[v] {
		return
	}
	rt.crashed[v] = false
	rt.noteFault()
	size := rt.p.Space().Size()
	for _, id := range rt.g.Out(v) {
		switch mode {
		case RejoinResample:
			rt.setLabel(id, core.Label(rng.Uint64N(size)))
		case RejoinZero:
			rt.setLabel(id, 0)
		}
	}
	rt.MarkDirty(v)
}

// noteFault stamps fault accounting at the current tick.
func (rt *Runtime) noteFault() {
	rt.numFaults++
	rt.lastFault = rt.now
}

// Run processes events until the queue drains (stabilized), the next event
// lies beyond horizonRounds rounds, or ctx is canceled. A zero horizon
// means 1 << 20 rounds. Returns ErrCanceled (wrapping ctx.Err()) on
// cancellation.
func (rt *Runtime) Run(ctx context.Context, horizonRounds uint64) (Result, error) {
	if horizonRounds == 0 {
		horizonRounds = 1 << 20
	}
	horizon := horizonRounds * TicksPerRound
	var batchHist []int64 // log2-bucketed batch sizes for the metrics sink
	stabilized := true
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	checks := 0
	for {
		t, ok := rt.nextTick()
		if !ok {
			break
		}
		if t > horizon {
			stabilized = false
			break
		}
		if checks++; checks&255 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("%w: %w", ErrCanceled, err)
			}
		}
		rt.advance(t)
		// Drain the whole tick in seq order: fault events fire immediately,
		// activations form one simultaneous set against the pre-step state.
		// Nothing pushed meanwhile lands in this bucket (every push is at
		// ≥ now+1, and now+wheelSpan goes to the overflow heap), so the
		// range below sees the whole tick and only it.
		i := t & wheelMask
		bucket := rt.wheel[i]
		rt.batch = rt.batch[:0]
		for _, e := range bucket {
			// The event leaves the pending count at its turn, as a heap pop
			// would, so MaxHeap also counts what a fault pushes mid-tick.
			rt.inWheel--
			if e < 0 {
				fn := rt.faults[-e-1]
				rt.faults[-e-1] = nil // release the closure
				fn(rt)
				continue
			}
			v := graph.NodeID(e)
			rt.pending[v] = false
			if rt.crashed[v] {
				continue
			}
			if w := t - rt.pendingAt[v]; w > rt.maxWait {
				rt.maxWait = w
			}
			rt.batch = append(rt.batch, v)
		}
		rt.wheel[i] = bucket[:0]
		rt.occupied[i/64] &^= 1 << (i % 64)
		if len(rt.batch) > 0 {
			rt.stepBatch()
			if rt.metrics != nil {
				b := 0
				for 1<<b < len(rt.batch) {
					b++
				}
				for len(batchHist) <= b {
					batchHist = append(batchHist, 0)
				}
				batchHist[b]++
			}
		}
	}
	if rt.inWheel == 0 && rt.wheel != nil {
		bucketPool.Put(rt.wheel)
		rt.wheel = nil
	}
	res := Result{
		Stabilized:   stabilized,
		StabilizedAt: rt.lastChange,
		LastFaultAt:  rt.lastFault,
		End:          rt.now,
		Activations:  rt.activations,
		Reactions:    rt.reactions,
		Faults:       rt.numFaults,
		MaxHeap:      rt.maxHeap,
		MaxWaitTicks: rt.maxWait,
	}
	rt.record(res, batchHist)
	return res, nil
}

// stepBatch applies one simultaneous activation set: all reactions read
// the pre-step labeling (writes are buffered), then writes land and dirty
// the affected readers. Cost is O(Σ degree(batch)) — independent of n.
func (rt *Runtime) stepBatch() {
	rt.writeEdge = rt.writeEdge[:0]
	rt.writeLab = rt.writeLab[:0]
	for _, v := range rt.batch {
		rt.activations++
		rt.reactions++
		ids := rt.g.Out(v)
		out := rt.out[:len(ids)]
		rt.p.React(v, rt.labels, rt.x[v], rt.in, out)
		for i, id := range ids {
			if rt.labels[id] != out[i] {
				rt.writeEdge = append(rt.writeEdge, id)
				rt.writeLab = append(rt.writeLab, out[i])
			}
		}
	}
	for i, id := range rt.writeEdge {
		// Writes from distinct nodes hit distinct edges (each edge has one
		// writer), so buffered writes never conflict.
		if rt.labels[id] != rt.writeLab[i] {
			rt.labels[id] = rt.writeLab[i]
			rt.lastChange = rt.now
			rt.MarkDirty(rt.g.Head(id))
		}
	}
}

// record flushes the run's counters into the metrics registry (once per
// run; the event loop itself is never instrumented).
func (rt *Runtime) record(res Result, batchHist []int64) {
	m := rt.metrics
	if m == nil {
		return
	}
	m.Counter("des/runs").Inc()
	m.Counter("des/activations").Add(int64(res.Activations))
	m.Counter("des/reactions").Add(int64(res.Reactions))
	m.Counter("des/faults").Add(int64(res.Faults))
	m.Gauge("des/heap_max").SetMax(int64(res.MaxHeap))
	m.Gauge("des/max_wait_ticks").SetMax(int64(res.MaxWaitTicks))
	if res.Stabilized {
		m.Counter("des/stabilized").Inc()
	}
	// batch_size_log2[b] counts activation batches with 2^(b-1) < size ≤ 2^b.
	s := m.Series("des/batch_size_log2")
	for b, c := range batchHist {
		s.Add(b, c)
	}
}

// push queues an event at tick at (> now). An event inside the wheel's
// window [now, now+wheelSpan) is appended to its tick's bucket; a later one
// goes to the overflow heap.
//
// Why buckets pop in (at, seq) order: take any tick T. An overflow push to
// T happens while now ≤ T−wheelSpan, a bucket push while now > T−wheelSpan,
// and now never decreases, so every overflow event of T was pushed before
// every bucket event of T. advance moves T's overflow events into the
// bucket, in (at, seq) order, as soon as now passes T−wheelSpan and before
// anything else runs at that now — so before any bucket push to T. The
// bucket thus lists T's events in push order, which is seq order.
func (rt *Runtime) push(at uint64, node int32) {
	if at-rt.now < wheelSpan {
		rt.pushWheel(at, node)
	} else {
		rt.pushHeap(event{at: at, node: int64(node)})
	}
	if n := rt.inWheel + len(rt.heap); n > rt.maxHeap {
		rt.maxHeap = n
	}
}

// nextTick returns the tick of the earliest pending event, or false when
// none is pending. Overflow events all lie at ≥ now+wheelSpan (advance
// keeps it so), past every wheel event, so the heap is consulted only
// when the wheel is empty.
func (rt *Runtime) nextTick() (uint64, bool) {
	if rt.inWheel == 0 {
		if len(rt.heap) == 0 {
			return 0, false
		}
		return rt.heap[0].at, true
	}
	// Wheel events lie in [now+1, now+wheelSpan): scan the bitmap
	// circularly from now+1's bucket.
	start := rt.now + 1
	first := start & wheelMask
	w := first / 64
	word := rt.occupied[w] &^ (1<<(first%64) - 1)
	for word == 0 {
		w = (w + 1) % wheelWords
		word = rt.occupied[w]
	}
	i := w*64 + uint64(bits.TrailingZeros64(word))
	return start + (i-first)&wheelMask, true
}

// advance moves now to t and drains every overflow event now inside the
// window [t, t+wheelSpan) into its bucket, in (at, seq) order.
func (rt *Runtime) advance(t uint64) {
	rt.now = t
	for len(rt.heap) > 0 && rt.heap[0].at-t < wheelSpan {
		ev := rt.pop()
		rt.pushWheel(ev.at, int32(ev.node))
	}
}

// pushWheel appends node to the bucket of tick at, which lies in the
// wheel's window.
func (rt *Runtime) pushWheel(at uint64, node int32) {
	if rt.wheel == nil {
		rt.wheel = bucketPool.Get().(*buckets)
	}
	i := at & wheelMask
	rt.wheel[i] = append(rt.wheel[i], node)
	rt.occupied[i/64] |= 1 << (i % 64)
	rt.inWheel++
}

// pushHeap inserts an overflow event, assigning its deterministic
// tie-break sequence.
func (rt *Runtime) pushHeap(ev event) {
	ev.seq = rt.seq
	rt.seq++
	rt.heap = append(rt.heap, ev)
	// Sift up.
	h := rt.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the minimum overflow event.
func (rt *Runtime) pop() event {
	h := rt.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	rt.heap = h[:last]
	h = rt.heap
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && eventLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && eventLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
