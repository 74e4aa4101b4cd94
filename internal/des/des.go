// Package des is the discrete-event runtime that executes stateless
// protocols, from a few nodes to millions. It keeps a queue of activation
// events and one state word per node, and schedules a node only while it
// is dirty (an in-edge label changed since it last reacted, an out-edge
// was corrupted, or it rejoined after a crash), so quiescent nodes cost
// nothing.
//
// Virtual time is measured in ticks, TicksPerRound per round. A Daemon
// (the paper's activation adversary) chooses when a dirty node fires.
// ScheduleDaemon runs a schedule σ of internal/schedule, round t being
// step t; events sharing a tick form one simultaneous activation set
// applied against the pre-step labeling, as core.Step applies σ(t), so a
// run is the paper's execution under σ (sim.Run is this runtime under a
// ScheduleDaemon). Poisson, Bursty and AdversarialGreedy model seeded
// stochastic and adversarial activation.
//
// The queue pops events in (tick, seq) order, seq being push order: a
// timing wheel of one bucket per tick over [now, now+wheelSpan), with a
// bitmap of non-empty buckets, in front of a heap for the rare later
// event. A drained bucket is the tick's activation batch. On a 2^18-node
// ring with up to 262k events pending an activation costs about 34 ns
// (perfbench des-faults, traced, seed 1, 2-core box), 2.2x less than with
// one heap of every event. Faults (label corruption, crash, rejoin) share
// the queue via ScheduleFault; internal/workload composes them.
package des

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/schedule"
)

// TicksPerRound is the virtual-time granularity: stochastic daemons fire
// between rounds, schedule-driven activations on round boundaries.
const TicksPerRound = 1024

// ErrCanceled is returned by Run when its context is canceled; it wraps
// the context error, so errors.Is works against both.
var ErrCanceled = errors.New("des: run canceled")

// Daemon chooses activation delays: when node v becomes dirty at rt.Now(),
// the runtime schedules its activation Delay ticks later (clamped to ≥ 1),
// or never when Delay returns Never. A dirty node keeps its scheduled
// event even if more of its inputs change. Implementations must be
// deterministic functions of their construction parameters (seeded
// randomness included).
type Daemon interface {
	Delay(rt *Runtime, v graph.NodeID) uint64
}

// Never is the delay of a node the daemon will not activate again; the
// node stays dirty, so the run does not count as stabilized.
const Never = ^uint64(0)

// ScheduleDaemon is the Daemon that runs a schedule σ : N⁺ → 2^[n] (§2.1):
// a node that becomes dirty in round s fires at tick t·TicksPerRound of
// the first round t > s with v ∈ σ(t). schedule.Synchronous over all n
// nodes costs O(1) per activation. Any other σ is generated step by step,
// in order (so a seeded RandomRFair draws its usual stream), only as far
// ahead as some dirty node needs, and each generated step is queued on its
// nodes until they fire. A ScheduleDaemon serves one Runtime.
type ScheduleDaemon struct {
	sched   schedule.Schedule
	n       int
	period  int  // σ's period when it is schedule.Periodic, else 0
	steps   int  // an aperiodic σ is generated no further than this step
	sync    bool // σ activates every node at every step
	gen     int  // σ(1..gen) are generated
	set     []graph.NodeID
	next    [][]int // next[v]: generated steps after this round activating v
	badStep int
	badNode graph.NodeID
}

// synchronous, holding no state, serves every full schedule.Synchronous.
var synchronous = ScheduleDaemon{period: 1, sync: true}

// FromSchedule returns the daemon running σ = s on n nodes. A periodic s
// must have a period of at least 1. An aperiodic s is generated no further
// than step steps (≤ 0 means 1 << 20, Run's default horizon): a node it
// does not activate by then is never activated.
func FromSchedule(s schedule.Schedule, n, steps int) (*ScheduleDaemon, error) {
	if sy, ok := s.(schedule.Synchronous); ok && sy.N == n {
		return &synchronous, nil
	}
	d := &ScheduleDaemon{sched: s, n: n, steps: steps, next: make([][]int, n)}
	if ps, ok := s.(schedule.Periodic); ok {
		if d.period = ps.Period(); d.period < 1 {
			return nil, fmt.Errorf("des: schedule period %d", d.period)
		}
	} else if d.steps <= 0 {
		d.steps = 1 << 20
	}
	return d, nil
}

// Delay implements Daemon.
func (d *ScheduleDaemon) Delay(rt *Runtime, v graph.NodeID) uint64 {
	if d.sync {
		return TicksPerRound - rt.now%TicksPerRound
	}
	s := int(rt.now / TicksPerRound)
	for len(d.after(v, s)) == 0 {
		if !d.generate(s) {
			return Never
		}
	}
	return uint64(d.next[v][0])*TicksPerRound - rt.now
}

// after drops v's queued steps up to round s, which no query from round s
// on wants, and returns the rest. Appends drop them too, so a queue spans
// only the lookahead, even for a node that is never dirty again.
func (d *ScheduleDaemon) after(v graph.NodeID, s int) []int {
	q := d.next[v]
	i, _ := slices.BinarySearch(q, s+1)
	d.next[v] = q[:copy(q, q[i:])]
	return d.next[v]
}

// generate queues step gen+1 of σ on its nodes, or reports false when σ
// named a node outside the graph (see Bad), a whole period after round s
// is generated (past it a periodic σ repeats), or the step bound is met.
func (d *ScheduleDaemon) generate(s int) bool {
	bound := d.steps
	if d.period > 0 {
		bound = s + d.period
	}
	if d.badStep != 0 || d.gen >= bound {
		return false
	}
	d.gen++
	d.set = d.sched.Activated(d.gen, d.set[:0])
	for _, u := range d.set {
		if uint(u) >= uint(d.n) {
			d.badStep, d.badNode = d.gen, u
			return false
		}
		d.next[u] = append(d.after(u, s), d.gen)
	}
	return true
}

// Bad returns the first generated step naming a node outside the graph,
// and that node (step 0 if none): a run is exact only before it.
func (d *ScheduleDaemon) Bad() (step int, v graph.NodeID) { return d.badStep, d.badNode }

// Poisson activates each dirty node after an exponentially distributed
// delay with mean 1/Rate rounds: nodes wake independently at rate Rate.
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
// rounds, so dirt accumulated while idle discharges in a burst.
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
// some label is delayed the full R rounds, while no-op activations run at
// the next tick, so Result.MaxWaitTicks ≤ R·TicksPerRound.
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

// wheelSpan is the timing wheel's width W in ticks: it covers the
// adversarial delay FairR·TicksPerRound at R = 4 and all but e^-16 of
// Poisson delays at rate 1; later events wait in the overflow heap.
const (
	wheelSpan  = 1 << 14
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// wheel is the timing wheel: one bucket per tick and the bitmap of the
// non-empty ones. Its 386 KiB would cost more than a small trial to clear,
// so a Runtime takes one from wheels at its first push and returns it at
// the end of Run. wheels keeps up to one per P; a sync.Pool would drop
// them at every garbage collection, to regrow each bucket from empty.
type wheel struct {
	b        [wheelSpan][]int32
	occupied [wheelWords]uint64
}

var wheels = struct {
	sync.Mutex
	free []*wheel
}{free: make([]*wheel, 0, runtime.GOMAXPROCS(0))}

// event is one overflow-heap entry. node >= 0 is an activation of that
// node; node < 0 is the fault closure at index -(node+1). Wheel buckets
// hold the same node encoding as int32s, in push order.
type event struct {
	at, seq uint64
	node    int64
}

// events is the overflow heap, ordered by (at, seq).
type events []event

func (h events) Len() int { return len(h) }
func (h events) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h events) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *events) Push(x any)   { *h = append(*h, x.(event)) }
func (h *events) Pop() (last any) {
	last, *h = (*h)[len(*h)-1], (*h)[:len(*h)-1]
	return last
}

// Config configures a Runtime.
type Config struct {
	// Metrics, when non-nil, receives each Run's counters.
	Metrics *obs.Registry
	// AssumeClean skips the initial all-nodes-dirty marking: the caller
	// asserts l0 is a fixed point, so only injected faults create work.
	AssumeClean bool
	// DetectCycles interns the labeling at phase 0 of every period of a
	// periodic ScheduleDaemon (see Result.CycleLen); sound without faults.
	DetectCycles bool
}

// Result reports how a Run ended.
type Result struct {
	// Stabilized is true when the queue drained with no node left dirty:
	// the labeling is a fixed point of every reaction.
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
	// MaxHeap is the high-water mark of pending events.
	MaxHeap int
	// MaxWaitTicks is the largest dirty-to-activation latency observed —
	// the empirical starvation bound of the daemon.
	MaxWaitTicks uint64
	// OutputChangedAt is the tick of the last output change (0 if none),
	// kept under Config.DetectCycles or a non-synchronous ScheduleDaemon.
	OutputChangedAt uint64
	// CycleLen > 0 is the length in rounds of a cycle Config.DetectCycles
	// found at round CycleAt; the run went on for one more, so
	// OutputChangedAt tells whether an output changes on the cycle.
	CycleLen, CycleAt uint64
}

// Rounds converts a tick count to (fractional) rounds.
func Rounds(ticks uint64) float64 { return float64(ticks) / TicksPerRound }

// The per-node state word: node[v] = dirtyTick<<stateShift | flags, where
// pendingBit is set while v has an activation queued (or Never will),
// crashedBit while v is crashed, and dirtyTick is the tick at which v last
// became dirty (its wait is measured from there).
const (
	pendingBit = 1 << 0
	crashedBit = 1 << 1
	stateShift = 2
)

// tickLimit bounds virtual time: a tick must fit in a state word above its
// two flag bits, so Run refuses any horizon of tickLimit ticks or more.
const tickLimit = 1 << (64 - stateShift)

// Runtime is a single-threaded discrete-event executor for one protocol
// instance; run independent trials on separate Runtimes.
type Runtime struct {
	p      *core.Protocol
	g      *graph.Graph
	x      core.Input
	daemon Daemon
	sync   bool // the daemon is the synchronous ScheduleDaemon

	labels   core.Labeling
	node     []uint64 // v's state word
	stranded int      // dirty nodes with no event (Never)

	// outputs[v] is v's output as of its last activation (0 before it).
	// Only sim-style runs read output changes (a compare per activation
	// cost a sync churn run a fifth): outLog under a non-synchronous
	// ScheduleDaemon, for OutputsAt, and outChangedAt with it or cycles.
	outputs                  []core.Bit
	watchOutputs, logOutputs bool
	outLog                   []outChange
	outChangedAt             uint64
	cycle                    cycleDetector // off while its period is 0

	// The event queue; see push for why it pops in (at, seq) order.
	wheel   *wheel // nil until the first push after New or a Run
	inWheel int
	heap    events
	seq     uint64
	now     uint64

	faults    []func(*Runtime)
	numFaults uint64

	lastChange  uint64
	lastFault   uint64
	activations uint64
	reactions   uint64
	maxHeap     int
	maxWait     uint64

	// Buffered writes of one activation batch: each edge has one writer
	// and a batch holds distinct nodes, so m entries always suffice. in
	// and out are one reaction's scratch.
	writeEdge []graph.EdgeID
	writeLab  []core.Label
	in, out   []core.Label

	metrics *obs.Registry
}

// outChange is one output change: node v's output was y until tick at.
type outChange struct {
	at, v uint64
	y     core.Bit
}

// cycleDetector is Config.DetectCycles' state. The k-th fresh key (ID k)
// is interned in round (k+1)·period, so IDs double as round stamps.
type cycleDetector struct {
	period, next uint64 // next is the next phase-0 round to intern
	codec        *enc.Codec
	seen         *enc.Table
	key          []uint64
	at, len      uint64 // the recurrence (Result.CycleAt, CycleLen)
}

// intern interns labels at each phase-0 round whose tick precedes end and
// reports whether one recurred (of two with no event between, the second).
func (c *cycleDetector) intern(labels core.Labeling, end uint64) bool {
	for ; c.next*TicksPerRound < end; c.next += c.period {
		c.key = c.codec.PackLabels(labels, c.key)
		if id, fresh := c.seen.Intern(c.key); !fresh {
			c.at, c.len = c.next, c.next-uint64(id+1)*c.period
			return true
		}
	}
	return false
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
	// The buffered write labels and the reaction scratch (in+out degree
	// bounds either side) share one allocation.
	m, d := g.M(), g.MaxDegree()
	lab := make([]core.Label, m+2*d)
	sd, _ := daemon.(*ScheduleDaemon)
	rt := &Runtime{
		p:          p,
		g:          g,
		x:          x,
		daemon:     daemon,
		sync:       sd != nil && sd.sync,
		logOutputs: sd != nil && !sd.sync,
		labels:     l0.Clone(),
		node:       make([]uint64, g.N()),
		outputs:    make([]core.Bit, g.N()),
		writeEdge:  make([]graph.EdgeID, m),
		writeLab:   lab[:m:m],
		in:         lab[m : m+d : m+d],
		out:        lab[m+d:],
		metrics:    cfg.Metrics,
	}
	rt.watchOutputs = rt.logOutputs || cfg.DetectCycles
	if cfg.DetectCycles {
		if sd == nil || sd.period == 0 {
			return nil, fmt.Errorf("des: cycle detection needs a periodic schedule, not %T", daemon)
		}
		codec := enc.NewLabelCodec(p.Space(), m)
		rt.cycle = cycleDetector{period: uint64(sd.period), next: uint64(sd.period),
			codec: codec, seen: enc.NewTable(codec.Words(), 8)}
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
// injectors use CorruptNode, Crash and Rejoin so dirty propagation stays
// correct.
func (rt *Runtime) Labels() core.Labeling { return rt.labels }

// Outputs returns the live outputs (see Labels).
func (rt *Runtime) Outputs() []core.Bit { return rt.outputs }

// OutputsAt returns a copy of the outputs as of tick at ≥ the last label
// change. Only a ScheduleDaemon run undoes later changes (a synchronous
// one makes none past the round after the last label change).
func (rt *Runtime) OutputsAt(at uint64) []core.Bit {
	out := append([]core.Bit(nil), rt.outputs...)
	for i := len(rt.outLog) - 1; i >= 0 && rt.outLog[i].at > at; i-- {
		out[rt.outLog[i].v] = rt.outLog[i].y
	}
	return out
}

// Graph returns the protocol's graph.
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Crashed reports whether v is currently crashed.
func (rt *Runtime) Crashed(v graph.NodeID) bool { return rt.node[v]&crashedBit != 0 }

// WouldChange reports whether activating v now would change an out-edge
// label (one reaction; the probe AdversarialGreedy steers by).
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
	if rt.node[v]&(pendingBit|crashedBit) != 0 {
		return
	}
	rt.node[v] = rt.now<<stateShift | pendingBit
	d := TicksPerRound - rt.now%TicksPerRound // the synchronous delay
	if !rt.sync {
		d = rt.daemon.Delay(rt, v)
	}
	switch d {
	case Never:
		rt.stranded++
		return
	case 0:
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

// setLabel overwrites edge id with l, marking both endpoints dirty: the
// reader must react to the corrupted value and the writer will want to
// restore its intended one.
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
	rt.node[v] |= crashedBit
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
	if rt.node[v]&crashedBit == 0 {
		return
	}
	rt.node[v] &^= crashedBit
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

// Run processes events until the queue drains, the next event lies beyond
// horizonRounds rounds, a detected cycle has been followed once more, or
// ctx is canceled (ErrCanceled, wrapping ctx.Err()). A zero horizon means
// 1 << 20 rounds; a horizon of 2^62 ticks (2^52 rounds) or more is an
// error. Events still pending at the end stay queued for a later Run.
func (rt *Runtime) Run(ctx context.Context, horizonRounds uint64) (Result, error) {
	if horizonRounds == 0 {
		horizonRounds = 1 << 20
	}
	if horizonRounds >= tickLimit/TicksPerRound {
		return Result{}, fmt.Errorf("des: horizon of %d rounds is past the limit of %d rounds",
			horizonRounds, tickLimit/TicksPerRound-1)
	}
	horizon := horizonRounds * TicksPerRound
	limit := horizon
	var batchHist []int64 // log2-bucketed batch sizes for the metrics sink
	t, ok := rt.nextTick()
	for checks := 0; ; checks++ {
		if checks&255 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("%w: %w", ErrCanceled, err)
			}
		}
		// The labeling holds from the last processed tick until t: intern
		// it at the phase-0 rounds in between. A drained queue with no
		// node dirty is a fixed point, where nothing recurs.
		if c := &rt.cycle; c.period != 0 && c.len == 0 && (ok || rt.stranded > 0) {
			end := t
			if !ok || t > horizon {
				end = horizon + 1
			}
			if c.intern(rt.labels, end) {
				limit = (c.at + c.len) * TicksPerRound
			}
		}
		if !ok || t > limit {
			break
		}
		rt.advance(t)
		// Drain the tick in seq order: faults fire at once, activations
		// form one set. No push lands in this bucket meanwhile (pushes are
		// at ≥ now+1), so activations compact in place into the batch.
		i := t & wheelMask
		bucket := rt.wheel.b[i]
		batch := bucket[:0]
		for _, e := range bucket {
			rt.inWheel-- // pending until its turn, as in one heap
			if e < 0 {
				fn := rt.faults[-e-1]
				rt.faults[-e-1] = nil // release the closure
				fn(rt)
				continue
			}
			s := rt.node[e] &^ pendingBit
			rt.node[e] = s
			if s&crashedBit != 0 {
				continue
			}
			rt.maxWait = max(rt.maxWait, t-s>>stateShift)
			batch = append(batch, e)
		}
		if len(batch) > 0 {
			rt.stepBatch(batch)
			if rt.metrics != nil {
				b := bits.Len(uint(len(batch) - 1))
				for len(batchHist) <= b {
					batchHist = append(batchHist, 0)
				}
				batchHist[b]++
			}
		}
		rt.wheel.b[i] = bucket[:0]
		rt.wheel.occupied[i/64] &^= 1 << (i % 64)
		t, ok = rt.nextTick()
	}
	rt.releaseWheel()
	res := Result{
		Stabilized:      !ok && rt.stranded == 0,
		StabilizedAt:    rt.lastChange,
		LastFaultAt:     rt.lastFault,
		End:             rt.now,
		Activations:     rt.activations,
		Reactions:       rt.reactions,
		Faults:          rt.numFaults,
		MaxHeap:         rt.maxHeap,
		MaxWaitTicks:    rt.maxWait,
		OutputChangedAt: rt.outChangedAt,
		CycleLen:        rt.cycle.len,
		CycleAt:         rt.cycle.at,
	}
	rt.record(res, batchHist)
	return res, nil
}

// stepBatch applies one simultaneous activation set of distinct nodes: all
// reactions read the pre-step labeling (writes are buffered), then writes
// land and dirty the affected readers. Cost is O(Σ degree(batch)) —
// independent of n.
func (rt *Runtime) stepBatch(batch []int32) {
	writes := 0
	for _, e := range batch {
		v := graph.NodeID(e)
		rt.activations++
		rt.reactions++
		ids := rt.g.Out(v)
		out := rt.out[:len(ids)]
		y := rt.p.React(v, rt.labels, rt.x[v], rt.in, out)
		if rt.watchOutputs && y != rt.outputs[v] {
			if rt.logOutputs {
				rt.outLog = append(rt.outLog, outChange{rt.now, uint64(v), rt.outputs[v]})
			}
			rt.outChangedAt = rt.now
		}
		rt.outputs[v] = y
		for i, id := range ids {
			if rt.labels[id] != out[i] {
				rt.writeEdge[writes] = id
				rt.writeLab[writes] = out[i]
				writes++
			}
		}
	}
	for i, id := range rt.writeEdge[:writes] {
		// Writes from distinct nodes hit distinct edges (each edge has one
		// writer), so buffered writes never conflict.
		rt.labels[id] = rt.writeLab[i]
		rt.lastChange = rt.now
		rt.MarkDirty(rt.g.Head(id))
	}
	if writes > 0 {
		rt.outLog = rt.outLog[:0] // nothing before a label change is undone
	}
}

// record flushes the run's counters into the metrics registry.
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

// push queues an event at tick at (> now): in its tick's bucket when it
// lies in the wheel's window [now, now+wheelSpan), otherwise — and
// whenever a Run has left the wheel's events in the overflow heap — in the
// heap.
//
// Why buckets pop in (at, seq) order: take any tick T. A bucket push to T
// happens while the wheel is held and now > T−wheelSpan; an overflow push
// to T while now ≤ T−wheelSpan, or between Runs with no wheel held. now
// never decreases, and a Run takes the wheel back only in advance, so
// every overflow event of T was pushed before every bucket event of T.
// advance moves T's overflow events into the bucket, in (at, seq) order,
// as soon as now passes T−wheelSpan and before anything else runs at that
// now. The bucket thus lists T's events in push order, which is seq order.
func (rt *Runtime) push(at uint64, node int32) {
	if at-rt.now < wheelSpan && (rt.wheel != nil || len(rt.heap) == 0) {
		rt.pushWheel(at, node)
	} else {
		rt.pushHeap(at, int64(node))
	}
	rt.maxHeap = max(rt.maxHeap, rt.inWheel+len(rt.heap))
}

// nextTick returns the tick of the earliest pending event, or false when
// none is pending. Overflow events all lie past every wheel event (advance
// keeps it so), so the heap is consulted only when the wheel is empty.
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
	word := rt.wheel.occupied[w] &^ (1<<(first%64) - 1)
	for word == 0 {
		w = (w + 1) % wheelWords
		word = rt.wheel.occupied[w]
	}
	i := w*64 + uint64(bits.TrailingZeros64(word))
	return start + (i-first)&wheelMask, true
}

// advance moves now to t and drains every overflow event now inside the
// window [t, t+wheelSpan) into its bucket, in (at, seq) order.
func (rt *Runtime) advance(t uint64) {
	rt.now = t
	for h := &rt.heap; len(*h) > 0 && (*h)[0].at-t < wheelSpan; {
		// heap.Pop without boxing the event into an interface.
		ev, last := (*h)[0], len(*h)-1
		(*h)[0], *h = (*h)[last], (*h)[:last]
		heap.Fix(h, 0)
		rt.pushWheel(ev.at, int32(ev.node))
	}
}

// pushWheel appends node to the bucket of tick at, which lies in the
// wheel's window.
func (rt *Runtime) pushWheel(at uint64, node int32) {
	if rt.wheel == nil {
		wheels.Lock()
		if n := len(wheels.free); n > 0 {
			rt.wheel, wheels.free = wheels.free[n-1], wheels.free[:n-1]
		}
		wheels.Unlock()
		if rt.wheel == nil {
			rt.wheel = new(wheel)
		}
	}
	i := at & wheelMask
	rt.wheel.b[i] = append(rt.wheel.b[i], node)
	rt.wheel.occupied[i/64] |= 1 << (i % 64)
	rt.inWheel++
}

// pushHeap queues an overflow event with the next tie-break sequence.
func (rt *Runtime) pushHeap(at uint64, node int64) {
	rt.heap = append(rt.heap, event{at: at, seq: rt.seq, node: node})
	heap.Fix(&rt.heap, len(rt.heap)-1) // heap.Push would box the event
	rt.seq++
}

// releaseWheel returns the wheel to wheels, first moving its events to
// the overflow heap in (at, seq) order, where a later Run finds them.
func (rt *Runtime) releaseWheel() {
	if rt.wheel == nil {
		return
	}
	for rt.inWheel > 0 {
		t, _ := rt.nextTick()
		i := t & wheelMask
		for _, e := range rt.wheel.b[i] {
			rt.heap = append(rt.heap, event{at: t, seq: rt.seq, node: int64(e)})
			rt.seq++
		}
		rt.inWheel -= len(rt.wheel.b[i])
		rt.wheel.b[i] = rt.wheel.b[i][:0]
		rt.wheel.occupied[i/64] &^= 1 << (i % 64)
	}
	heap.Init(&rt.heap)
	wheels.Lock()
	if len(wheels.free) < cap(wheels.free) {
		wheels.free = append(wheels.free, rt.wheel)
	}
	wheels.Unlock()
	rt.wheel = nil
}
