package explore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stateless/internal/obs"
	"stateless/internal/par"
)

// ErrCanceled is returned by Run when its context is canceled. The check
// runs once per expanded batch (not per successor), so cancellation costs
// nothing on the hot path and still lands within one state's expansion.
var ErrCanceled = errors.New("explore: run canceled")

// Emit interns a single key into the run's store, enforces the state
// budget, and queues the state for expansion when it is new. It is the
// seeding entry point (Config.Seed); the worker hot path moves whole
// batches instead. Safe for concurrent use.
type Emit func(key []uint64) (id int32, fresh bool, err error)

// Batch is one worker's reusable successor buffer: the packed keys of all
// successors of one state, stored back to back, plus the per-key intern
// results the engine fills in before handing the batch back to the
// expander. A Batch is owned by a single worker; none of its methods are
// safe for concurrent use.
type Batch struct {
	wpk   int
	count int
	keys  []uint64
	// IDs and Fresh are valid from the engine's intern pass until the next
	// Reset: IDs[i] is the store ID of key i (always 0 for a lossy store),
	// Fresh[i] whether this batch interned it first.
	IDs   []int32
	Fresh []bool
}

// NewBatch returns an empty batch for keys of wordsPerKey words.
func NewBatch(wordsPerKey int) *Batch {
	return &Batch{wpk: wordsPerKey}
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() { b.count = 0 }

// Len returns the number of keys in the batch.
func (b *Batch) Len() int { return b.count }

// WordsPerKey returns the key width.
func (b *Batch) WordsPerKey() int { return b.wpk }

// Alloc sizes the batch for exactly count keys and returns the backing
// block of count·WordsPerKey words for direct filling, key i at
// [i·WordsPerKey, (i+1)·WordsPerKey). The block's previous contents are
// arbitrary; callers overwrite every word.
func (b *Batch) Alloc(count int) []uint64 {
	b.count = count
	if need := count * b.wpk; cap(b.keys) < need {
		b.keys = make([]uint64, need)
	} else {
		b.keys = b.keys[:need]
	}
	return b.keys
}

// Append copies one key into the batch — the convenience path for sparse
// expanders that produce successors one at a time.
func (b *Batch) Append(key []uint64) {
	if need := (b.count + 1) * b.wpk; cap(b.keys) >= need {
		b.keys = b.keys[:need]
		copy(b.keys[b.count*b.wpk:], key)
	} else {
		b.keys = append(b.keys[:b.count*b.wpk], key...)
	}
	b.count++
}

// Key returns the i-th key (aliases the batch block).
func (b *Batch) Key(i int) []uint64 { return b.keys[i*b.wpk : (i+1)*b.wpk] }

// Block returns the whole packed block (count·WordsPerKey words).
func (b *Batch) Block() []uint64 { return b.keys[:b.count*b.wpk] }

// Expander expands states in batches. One Expander is created per worker,
// so implementations may keep scratch buffers without locking.
type Expander interface {
	// Expand appends every successor key of the state to the batch (Alloc
	// for block fills, Append for one-at-a-time). words is the state's
	// packed key as carried by the frontier; id is its store ID (always 0
	// for a lossy store). The batch arrives Reset; the engine interns its
	// keys afterwards.
	Expand(id int32, words []uint64, b *Batch) error
	// Absorb runs after the engine has interned the batch: b.IDs and
	// b.Fresh hold each key's store ID and freshness, index-aligned with
	// the keys Expand produced. Implementations record transitions here;
	// expanders that only need the visited set can make it a no-op.
	Absorb(id int32, b *Batch) error
}

// Progress is a snapshot of a running exploration, delivered to
// Config.Progress. All counters are cumulative since Run started.
type Progress struct {
	// States is the number of distinct states interned.
	States int64
	// Expanded is the number of states fully expanded.
	Expanded int64
	// Frontier is the number of states discovered but not yet expanded.
	Frontier int
	// Depth is the maximum discovery depth reached so far: seeds sit at
	// depth 0 and a state first discovered while expanding a depth-d state
	// sits at depth d+1.
	Depth int
	// Elapsed is the wall time since Run started.
	Elapsed time.Duration
	// StatesPerSec is the cumulative interning rate (States/Elapsed).
	StatesPerSec float64
	// Metrics is a full registry snapshot (nil unless Config.Metrics is
	// set): live store occupancy, batch fill, stage timers, and whatever
	// else the expander registered.
	Metrics obs.Snapshot
}

// Config describes one BFS run.
type Config struct {
	// Store is the visited-state set (NewStore picks one from a codec).
	Store Store
	// Workers is the pool size (≤ 0 means GOMAXPROCS).
	Workers int
	// Limit bounds the number of distinct states; exceeding it aborts the
	// run with an ErrLimit-wrapped error.
	Limit int
	// Seed interns the initial states through emit. It runs before the
	// worker pool starts but may use emit concurrently (e.g. from a
	// chunked Labelings sweep).
	Seed func(emit Emit) error
	// NewExpander builds worker w's expander.
	NewExpander func(w int) Expander
	// Ctx cancels the run: workers check it once per batch and Run returns
	// an ErrCanceled-wrapped error. nil means never canceled.
	Ctx context.Context
	// Progress, when non-nil, receives periodic snapshots (every
	// ProgressInterval) from a sampler goroutine plus one final snapshot
	// after the run completes. Callbacks may fire concurrently with
	// workers; they only read atomic counters (and, when Metrics is set,
	// take a registry snapshot).
	Progress func(Progress)
	// ProgressInterval is the sampling period (≤ 0 means 1s).
	ProgressInterval time.Duration
	// FrontierMemBytes caps the in-memory frontier: once the push-side
	// buffer exceeds half the budget it is flushed to a sequential chunk
	// file in SpillDir and streamed back in depth order when the pop side
	// drains. ≤ 0 disables spilling. Applies to every store.
	FrontierMemBytes int64
	// SpillDir is where frontier chunks live. Required when
	// FrontierMemBytes > 0; defaults to CheckpointDir when checkpointing.
	SpillDir string
	// CheckpointDir enables periodic checkpoints of a bitstate run:
	// visited bit array + pending frontier + counters, committed by an
	// atomic manifest rename, so a killed run resumes (Resume) to the
	// identical verdict. Requires a lossy (bitstate) store.
	CheckpointDir string
	// CheckpointInterval is the time between checkpoints (≤ 0 means 30s).
	CheckpointInterval time.Duration
	// CheckpointTag fingerprints the run configuration; Resume refuses a
	// manifest written under a different tag.
	CheckpointTag string
	// CheckpointExtra, when non-nil, contributes an opaque payload to each
	// manifest (verify stores its best violation witness). Called at the
	// checkpoint barrier, never concurrently with RestoreExtra.
	CheckpointExtra func() []byte
	// RestoreExtra, when non-nil, receives the manifest's Extra payload
	// during Resume, before workers start.
	RestoreExtra func([]byte) error
	// Resume restores store and frontier from CheckpointDir's manifest
	// instead of seeding, then continues the run.
	Resume bool
	// Metrics, when non-nil, receives the engine's telemetry: per-depth
	// discovery counts (explore/frontier_by_depth), the batch fill
	// histogram (explore/batch_fill), sampled per-stage timers
	// (explore/{expand,intern,absorb}_ns, explore/worker_idle_ns), and
	// pull gauges for the live counters and the store's occupancy/probe
	// statistics (store/*). Recording happens at batch granularity, so a
	// nil registry — the default — costs one predictable branch per batch
	// and the instrumented engine stays within noise of the uninstrumented
	// one. Exploration results are bit-identical with and without a
	// registry attached.
	Metrics *obs.Registry
}

// Engine metric names (see Config.Metrics).
const (
	MetricStates          = "explore/states"
	MetricExpanded        = "explore/expanded"
	MetricFrontier        = "explore/frontier"
	MetricDepth           = "explore/depth"
	MetricFrontierByDepth = "explore/frontier_by_depth"
	MetricBatchFill       = "explore/batch_fill"
	MetricExpandNs        = "explore/expand_ns"
	MetricInternNs        = "explore/intern_ns"
	MetricAbsorbNs        = "explore/absorb_ns"
	MetricIdleNs          = "explore/worker_idle_ns"
)

// popBlockSize is the number of states one worker claims per queue lock
// acquisition. Expansions of small states run well under a microsecond, so
// claiming states one at a time made the queue mutex the scaling
// bottleneck (clique/workers=4 was slower than workers=1 in ms-per-verdict
// before block claiming); at 64 states per claim the lock traffic
// amortizes away while the work-sharing granularity stays far below any
// realistic frontier size.
const popBlockSize = 64

// clockSampleEvery is the stage-timer sampling interval: one in every 64
// stage invocations is measured (obs.Clock), keeping timer overhead at two
// time.Now calls per 64 states.
const clockSampleEvery = 64

// run is the engine's shared mutable state. The frontier q carries each
// state's packed key alongside its store ID, so a state is expanded from
// the queue entry itself and never read back from the store.
type run struct {
	cfg      Config
	q        *keyQueue
	total    atomic.Int64 // distinct states interned
	expanded atomic.Int64 // states fully expanded
	start    time.Time
	fill     *obs.Histogram // nil when no registry

	// checkpoint telemetry (lossy store with CheckpointDir)
	checkpoints     atomic.Int64
	checkpointBytes atomic.Int64
}

// Run drives a parallel BFS to its fixed point: seed states and every key
// emitted during expansion are interned exactly once, and every fresh state
// is expanded exactly once. With an exact store the visited set — and
// therefore the verdict of any analysis over it — is independent of worker
// count, scheduling and spilling; with a lossy (bitstate) store the
// admitted set can additionally depend on hash collisions, so it is a
// sound under-approximation (never invents states) rather than exact. The
// frontier spills to disk past FrontierMemBytes for every store;
// checkpointing is available only for lossy stores.
func Run(cfg Config) error {
	if (cfg.CheckpointDir != "" || cfg.Resume) && !cfg.Store.Lossy() {
		return fmt.Errorf("explore: checkpoint/resume requires a lossy (bitstate) store")
	}
	dir := cfg.SpillDir
	if cfg.CheckpointDir != "" {
		if dir != "" && dir != cfg.CheckpointDir {
			return fmt.Errorf("explore: with checkpointing, spill dir must be the checkpoint dir (got %q and %q)", dir, cfg.CheckpointDir)
		}
		dir = cfg.CheckpointDir
	}
	q, err := newKeyQueue(cfg.Store.Words(), cfg.FrontierMemBytes, dir)
	if err != nil {
		return err
	}
	defer q.cleanup()
	r := &run{cfg: cfg, q: q, start: time.Now()}
	r.registerMetrics()
	if cfg.Progress != nil {
		stop := make(chan struct{})
		done := make(chan struct{})
		go r.sampleProgress(stop, done)
		defer func() {
			close(stop)
			<-done
			cfg.Progress(r.snapshot()) // final totals
		}()
	}
	if err := r.canceled(); err != nil {
		return err
	}
	if cfg.Resume {
		if err := r.restoreFromCheckpoint(); err != nil {
			return err
		}
	} else if err := cfg.Seed(r.emit); err != nil {
		return err
	}
	var ckStop, ckDone chan struct{}
	if cfg.CheckpointDir != "" {
		ckStop = make(chan struct{})
		ckDone = make(chan struct{})
		go r.checkpointLoop(ckStop, ckDone)
	}
	workers := par.Workers(cfg.Workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go r.worker(w, &wg)
	}
	wg.Wait()
	if ckStop != nil {
		close(ckStop)
		<-ckDone
	}
	if m := cfg.Metrics; m != nil {
		m.Series(MetricFrontierByDepth).SetFrom(q.depthCountsCopy())
	}
	return q.failure()
}

// checkpointLoop writes a checkpoint every CheckpointInterval until the
// run completes. Checkpoint failures fail the run: a verdict that silently
// lost its resumability guarantee is worse than an early error.
func (r *run) checkpointLoop(stop, done chan struct{}) {
	defer close(done)
	interval := r.cfg.CheckpointInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	// A reset timer, not a ticker: the interval runs from the end of one
	// checkpoint to the start of the next. A ticker would keep a tick
	// pending whenever a write outlasts the interval, re-pausing the queue
	// the instant it unpauses and starving the workers (livelock).
	t := time.NewTimer(interval)
	defer t.Stop()
	var clk *obs.Clock
	if m := r.cfg.Metrics; m != nil {
		clk = obs.NewClock(m.Timer(MetricCheckpointNs), 1)
		defer clk.Flush()
	}
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			clk.Start()
			n, err := r.writeCheckpoint()
			clk.Stop()
			if err != nil {
				r.q.fail(fmt.Errorf("explore: checkpoint: %w", err))
				return
			}
			r.checkpoints.Add(1)
			r.checkpointBytes.Store(n)
			t.Reset(interval)
		}
	}
}

// registerMetrics wires the engine's pull gauges and hot-path instruments
// into the run's registry (no-op without one).
func (r *run) registerMetrics() {
	m, q := r.cfg.Metrics, r.q
	if m == nil {
		return
	}
	m.Func(MetricStates, r.total.Load)
	m.Func(MetricExpanded, r.expanded.Load)
	m.Func(MetricFrontier, func() int64 { return int64(q.depth()) })
	m.Func(MetricDepth, func() int64 { return int64(q.maxDepth()) })
	r.fill = m.Histogram(MetricBatchFill, 0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
	registerStoreMetrics(m, r.cfg.Store)
	m.Func(MetricFrontierMemBytes, q.memBytes)
	m.Func(MetricSpillChunks, func() int64 { c, _, _ := q.spillStats(); return c })
	m.Func(MetricSpillBytes, func() int64 { _, b, _ := q.spillStats(); return b })
	m.Func(MetricSpillLoads, func() int64 { _, _, l := q.spillStats(); return l })
	if r.cfg.CheckpointDir != "" {
		m.Func(MetricCheckpoints, r.checkpoints.Load)
		m.Func(MetricCheckpointBytes, r.checkpointBytes.Load)
	}
}

// canceled maps the context state to the engine's cancellation error.
func (r *run) canceled() error {
	if r.cfg.Ctx == nil {
		return nil
	}
	if err := r.cfg.Ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// emit is the single-key intern path used for seeding. Fresh seeds enter
// the frontier at discovery depth 0.
func (r *run) emit(key []uint64) (int32, bool, error) {
	id, fresh, err := r.cfg.Store.Intern(key)
	if err != nil {
		return 0, false, err
	}
	if fresh {
		if total := int(r.total.Add(1)); r.cfg.Limit > 0 && total > r.cfg.Limit {
			return 0, false, fmt.Errorf("%w: > %d states", ErrLimit, r.cfg.Limit)
		}
		if err := r.q.push(key, id, 0); err != nil {
			return 0, false, err
		}
	}
	return id, fresh, nil
}

// worker is one expansion loop: claim a block of (id, depth, key) entries
// under one queue lock acquisition, then for each state expand its key
// into the batch, intern the batch, and hand the results back to the
// expander. Termination accounting is settled once per block (doneN), not
// once per state.
func (r *run) worker(w int, wg *sync.WaitGroup) {
	defer wg.Done()
	ex := r.cfg.NewExpander(w)
	wpk := r.cfg.Store.Words()
	batch := NewBatch(wpk)
	keys := make([]uint64, popBlockSize*wpk)
	var (
		ids, depths                     [popBlockSize]int32
		clkExpand, clkIntern, clkAbsorb *obs.Clock
		clkIdle                         *obs.Clock
	)
	if m := r.cfg.Metrics; m != nil {
		clkExpand = obs.NewClock(m.Timer(MetricExpandNs), clockSampleEvery)
		clkIntern = obs.NewClock(m.Timer(MetricInternNs), clockSampleEvery)
		clkAbsorb = obs.NewClock(m.Timer(MetricAbsorbNs), clockSampleEvery)
		clkIdle = obs.NewClock(m.Timer(MetricIdleNs), 1)
		defer func() {
			clkExpand.Flush()
			clkIntern.Flush()
			clkAbsorb.Flush()
			clkIdle.Flush()
		}()
	}
	for {
		clkIdle.Start()
		n := r.q.popBlock(keys, ids[:], depths[:])
		clkIdle.Stop()
		if n == 0 {
			return
		}
		if err := r.canceled(); err != nil {
			r.expanded.Add(int64(n))
			r.q.doneN(n)
			r.q.fail(err)
			return
		}
		for i := 0; i < n; i++ {
			batch.Reset()
			clkExpand.Start()
			err := ex.Expand(ids[i], keys[i*wpk:(i+1)*wpk], batch)
			clkExpand.Stop()
			r.fill.Observe(int64(batch.Len()))
			if err == nil {
				clkIntern.Start()
				err = r.internBatch(batch, depths[i]+1)
				clkIntern.Stop()
			}
			if err == nil {
				clkAbsorb.Start()
				err = ex.Absorb(ids[i], batch)
				clkAbsorb.Stop()
			}
			if err != nil {
				r.expanded.Add(int64(n))
				r.q.doneN(n)
				r.q.fail(err)
				return
			}
		}
		r.expanded.Add(int64(n))
		r.q.doneN(n)
	}
}

// internBatch interns the batch's keys in one store round-trip, filling
// IDs/Fresh, charging fresh states against the limit, and enqueueing them
// at discovery depth d.
func (r *run) internBatch(b *Batch, d int32) error {
	count := b.Len()
	if cap(b.IDs) < count {
		b.IDs = make([]int32, count)
		b.Fresh = make([]bool, count)
	}
	b.IDs = b.IDs[:count]
	b.Fresh = b.Fresh[:count]
	block := b.keys[:count*b.wpk]
	if err := r.cfg.Store.InternBatch(block, b.IDs, b.Fresh); err != nil {
		return err
	}
	freshCount := 0
	for _, f := range b.Fresh {
		if f {
			freshCount++
		}
	}
	if freshCount == 0 {
		return nil
	}
	if total := int(r.total.Add(int64(freshCount))); r.cfg.Limit > 0 && total > r.cfg.Limit {
		return fmt.Errorf("%w: > %d states", ErrLimit, r.cfg.Limit)
	}
	return r.q.pushFresh(block, b.IDs, b.Fresh, d, freshCount)
}

// snapshot reads the progress counters.
func (r *run) snapshot() Progress {
	p := Progress{
		States:   r.total.Load(),
		Expanded: r.expanded.Load(),
		Frontier: r.q.depth(),
		Depth:    r.q.maxDepth(),
		Elapsed:  time.Since(r.start),
	}
	if s := p.Elapsed.Seconds(); s > 0 {
		p.StatesPerSec = float64(p.States) / s
	}
	if m := r.cfg.Metrics; m != nil {
		m.Series(MetricFrontierByDepth).SetFrom(r.q.depthCountsCopy())
		p.Metrics = m.Snapshot()
	}
	return p
}

// sampleProgress delivers periodic snapshots until stopped.
func (r *run) sampleProgress(stop, done chan struct{}) {
	defer close(done)
	interval := r.cfg.ProgressInterval
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			r.cfg.Progress(r.snapshot())
		}
	}
}
