package des

import (
	"context"
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
)

// firing is one processed event as the queue tests observe it: a fault
// closure (by scheduling index) or a node activation, at its tick.
type firing struct {
	tick  uint64
	fault bool
	id    int
}

// queueScript is a deterministic event script: every fault's children and
// every daemon delay are functions of (seed, fault id) and (node, now), so
// the runtime and the reference queue below generate the same events as
// long as they pop them in the same order.
type queueScript struct {
	seed      uint64
	n         int
	maxFaults int
}

// queueDelays are the delays the script draws from: both sides of the
// wheel span W and several multiples of it, so events land in the wheel,
// in the overflow heap, and on ticks shared by both.
var queueDelays = []uint64{
	1, 1, 2, 3, wheelSpan - 1, wheelSpan, wheelSpan + 1,
	2 * wheelSpan, 3*wheelSpan - 1, 5 * wheelSpan, 9*wheelSpan + 2,
}

// nodeDelay is the daemon's delay for v at now (0 is clamped to 1).
func (s queueScript) nodeDelay(v int, now uint64) uint64 {
	h := (uint64(v)+1)*0x9e3779b97f4a7c15 ^ (now+s.seed)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	if h%7 == 0 {
		return 0
	}
	return queueDelays[h%uint64(len(queueDelays))]
}

// childAction is one thing a firing fault does, in order.
type childAction struct {
	fault bool   // schedule a fault (else mark node dirty)
	at    uint64 // absolute tick of the fault (may be ≤ now: clamped)
	node  int
}

// actions lists what fault id does when it fires at now, given how many
// faults exist so far (new faults stop at maxFaults).
func (s queueScript) actions(id int, now uint64, faults int) []childAction {
	rng := rand.New(rand.NewPCG(s.seed, uint64(id)))
	var acts []childAction
	for k := 1 + rng.IntN(4); k > 0; k-- {
		if rng.IntN(3) == 0 {
			acts = append(acts, childAction{node: rng.IntN(s.n)})
			continue
		}
		if faults >= s.maxFaults {
			continue
		}
		faults++
		var at uint64
		switch rng.IntN(4) {
		case 0: // at or before now: clamped to now+1
			at = now - uint64(rng.IntN(2))*min(now, 3)
		default:
			at = now + queueDelays[rng.IntN(len(queueDelays))]
		}
		acts = append(acts, childAction{fault: true, at: at})
	}
	return acts
}

// roots are the faults scheduled before Run: some near, and two far ones
// that arrive after long idle gaps in which only overflow events remain.
func (s queueScript) roots() []uint64 {
	return []uint64{1, 1, 2, wheelSpan - 1, wheelSpan, 40*wheelSpan + 3, 41*wheelSpan + 3}
}

// runRuntime drives the script through a Runtime and returns its firings
// and Result.
func (s queueScript) runRuntime(t *testing.T) ([]firing, Result) {
	t.Helper()
	var log []firing
	var rt *Runtime
	g := graph.Ring(s.n)
	reactions := make([]core.Reaction, s.n)
	for v := range reactions {
		reactions[v] = func(_ []core.Label, _ core.Bit, out []core.Label) core.Bit {
			log = append(log, firing{tick: rt.Now(), id: v})
			out[0] = 0 // the all-zero labeling is a fixed point: no cascades
			return 0
		}
	}
	p, err := core.NewProtocol(g, core.BinarySpace(), reactions)
	if err != nil {
		t.Fatal(err)
	}
	rt, err = New(p, make(core.Input, s.n), make(core.Labeling, g.M()), scriptDaemon{s}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	var schedule func(at uint64)
	schedule = func(at uint64) {
		id := faults
		faults++
		rt.ScheduleFault(at, func(rt *Runtime) {
			log = append(log, firing{tick: rt.Now(), fault: true, id: id})
			for _, a := range s.actions(id, rt.Now(), faults) {
				if a.fault {
					schedule(a.at)
				} else {
					rt.MarkDirty(graph.NodeID(a.node))
				}
			}
		})
	}
	for _, at := range s.roots() {
		schedule(at)
	}
	res, err := rt.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return log, res
}

type scriptDaemon struct{ s queueScript }

func (d scriptDaemon) Delay(rt *Runtime, v graph.NodeID) uint64 {
	return d.s.nodeDelay(int(v), rt.Now())
}

// refEvent is one reference-queue entry.
type refEvent struct {
	at, seq uint64
	fault   bool
	id      int
}

// runReference replays the script with a plain list popped by minimum
// (at, seq) — the order the runtime's queue must reproduce — and returns
// the firings and the pending-event high-water mark.
func (s queueScript) runReference() ([]firing, int) {
	var (
		queue   []refEvent
		seq     uint64
		now     uint64
		maxLen  int
		faults  int
		log     []firing
		pending = make([]bool, s.n)
	)
	push := func(ev refEvent) {
		if ev.at <= now {
			ev.at = now + 1
		}
		ev.seq = seq
		seq++
		queue = append(queue, ev)
		maxLen = max(maxLen, len(queue))
	}
	markDirty := func(v int) {
		if !pending[v] {
			pending[v] = true
			push(refEvent{at: now + max(s.nodeDelay(v, now), 1), id: v})
		}
	}
	pop := func() refEvent {
		best := 0
		for i, ev := range queue {
			if ev.at < queue[best].at || ev.at == queue[best].at && ev.seq < queue[best].seq {
				best = i
			}
		}
		ev := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		return ev
	}
	for v := 0; v < s.n; v++ {
		markDirty(v)
	}
	for _, at := range s.roots() {
		push(refEvent{at: at, fault: true, id: faults})
		faults++
	}
	// Pop one event at a time; a tick's activations are logged as one
	// batch after its faults, when the first event of a later tick pops
	// (a push is always at ≥ now+1, so none joins a tick being popped).
	var batch []firing
	for len(queue) > 0 {
		ev := pop()
		if ev.at != now {
			log = append(log, batch...)
			batch = batch[:0]
			now = ev.at
		}
		if !ev.fault {
			pending[ev.id] = false
			batch = append(batch, firing{tick: now, id: ev.id})
			continue
		}
		log = append(log, firing{tick: now, fault: true, id: ev.id})
		for _, a := range s.actions(ev.id, now, faults) {
			if a.fault {
				push(refEvent{at: a.at, fault: true, id: faults})
				faults++
			} else {
				markDirty(a.node)
			}
		}
	}
	log = append(log, batch...)
	return log, maxLen
}

// The timing wheel plus overflow heap must pop events in exactly the
// (at, seq) order of one sorted queue: same firings, same ticks, same
// activation order within a tick, and the same pending-event high-water
// mark (Result.MaxHeap). The script mixes delays of 1, W−1, W, W+1 and
// multiples of W, faults scheduled at or before now (clamped to now+1),
// faults that schedule further faults, and idle gaps of tens of W in
// which only overflow events remain.
func TestEventQueueMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		s := queueScript{seed: seed, n: 16, maxFaults: 1500}
		got, res := s.runRuntime(t)
		want, wantMax := s.runReference()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, reference has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference pops %+v", seed, i, got[i], want[i])
			}
		}
		if res.MaxHeap != wantMax {
			t.Fatalf("seed %d: MaxHeap %d, reference high-water %d", seed, res.MaxHeap, wantMax)
		}
		if !res.Stabilized || res.End != want[len(want)-1].tick {
			t.Fatalf("seed %d: Stabilized %v End %d, want true and %d",
				seed, res.Stabilized, res.End, want[len(want)-1].tick)
		}
		if last := want[len(want)-1].tick; last < 41*wheelSpan {
			t.Fatalf("seed %d: last firing at %d never reached the far roots", seed, last)
		}
	}
}

// A run whose remaining events all lie past the horizon stops short with
// Stabilized = false and End at the last processed tick, whether the next
// event waits in the wheel or in the overflow heap; a later Run with a
// longer horizon resumes from there.
func TestRunHorizonWithFarEvents(t *testing.T) {
	p, err := core.NewUniformProtocol(graph.Ring(4), core.BinarySpace(),
		func(_ []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = 0; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	const horizonRounds = 4
	for _, far := range []uint64{
		horizonRounds*TicksPerRound + 1,             // inside the wheel's window
		horizonRounds*TicksPerRound + 3*wheelSpan,   // overflow heap
		horizonRounds*TicksPerRound + 3*wheelSpan*5, // overflow heap, far
	} {
		rt, err := New(p, make(core.Input, 4), make(core.Labeling, 4), syncDaemon(4), Config{AssumeClean: true})
		if err != nil {
			t.Fatal(err)
		}
		fired := 0
		rt.ScheduleFault(5, func(*Runtime) { fired++ })
		rt.ScheduleFault(far, func(*Runtime) { fired++ })
		res, err := rt.Run(context.Background(), horizonRounds)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stabilized || res.End != 5 || fired != 1 {
			t.Fatalf("far %d: Stabilized %v End %d fired %d, want false, 5, 1",
				far, res.Stabilized, res.End, fired)
		}
		res, err = rt.Run(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stabilized || res.End != far || fired != 2 || res.MaxHeap != 2 {
			t.Fatalf("far %d: resumed Stabilized %v End %d fired %d MaxHeap %d, want true, %d, 2, 2",
				far, res.Stabilized, res.End, fired, res.MaxHeap, far)
		}
	}
}
