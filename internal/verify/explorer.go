package verify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/explore"
	"stateless/internal/par"
)

// explorer holds the shared state of one states-graph search.
type explorer struct {
	p            *core.Protocol
	x            core.Input
	r            int
	trackOutputs bool
	limit        int
	workers      int
	opts         Options

	codec *enc.Codec
	store explore.Store
	sym   *explore.Symmetry // nil = no quotient
	// compare orders packed states by the compared section (labels, or
	// outputs when checking output stabilization): the witness order.
	compare func(a, b []uint64) int

	// expanders[w] is worker w's expander; its edge buffer is merged after
	// the engine joins its workers.
	expanders []*expander

	// Bitstate-mode violation record: the canonically smallest quotient
	// self-loop with a section change, found on the fly (bitstate keeps no
	// edge log to analyse afterwards): the packed source state and its raw
	// successor. Both are exact reachable states, so the witness extracted
	// from them is exact even though the store is lossy.
	vioMu sync.Mutex
	vio   pair
}

func newExplorer(p *core.Protocol, x core.Input, r int, trackOutputs bool, opts Options, limit int) (*explorer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	g := p.Graph()
	codec := enc.NewStateCodec(p.Space(), g.M(), g.N(), r, trackOutputs)
	var store explore.Store
	switch opts.Store {
	case StoreAuto:
		store = explore.NewStore(codec)
	case StoreDense:
		if codec.Bits() > explore.DenseMaxBits {
			return nil, fmt.Errorf("verify: dense store requested but state is %d bits (max %d)",
				codec.Bits(), explore.DenseMaxBits)
		}
		store = explore.NewDense(codec.Bits())
	case StoreHash:
		store = explore.NewHash(codec.Words())
	case StoreBitstate:
		logBits := opts.BitstateBits
		if logBits <= 0 {
			logBits = DefaultBitstateBits
		}
		k := opts.BitstateK
		if k <= 0 {
			k = DefaultBitstateK
		}
		store = explore.NewBitstate(codec.Words(), logBits, k)
	default:
		return nil, fmt.Errorf("verify: unknown store kind %d", opts.Store)
	}
	if (opts.CheckpointDir != "" || opts.Resume) && !store.Lossy() {
		return nil, errors.New("verify: checkpoint/resume requires the bitstate store")
	}
	var sym *explore.Symmetry
	switch opts.Symmetry {
	case SymmetryOff:
	case SymmetryAuto:
		sym = explore.NewSymmetry(p, x, codec)
	case SymmetryOn:
		sym = explore.NewSymmetry(p, x, codec)
		if sym == nil {
			return nil, errors.New("verify: symmetry quotient requested but not applicable " +
				"(needs a node-uniform protocol, an automorphism-invariant input, and a symmetric topology)")
		}
	default:
		return nil, fmt.Errorf("verify: unknown symmetry mode %d", opts.Symmetry)
	}
	compare := codec.CompareLabels
	if trackOutputs {
		compare = codec.CompareOutputs
	}
	workers := par.Workers(opts.Workers)
	return &explorer{
		p:            p,
		x:            x,
		r:            r,
		trackOutputs: trackOutputs,
		limit:        limit,
		workers:      workers,
		opts:         opts,
		codec:        codec,
		store:        store,
		sym:          sym,
		compare:      compare,
		expanders:    make([]*expander, workers),
	}, nil
}

// recordViolation keeps the canonically smallest violation pair (same
// ordering as the exact witness pass), so the reported witness does not
// depend on which worker found it first.
func (e *explorer) recordViolation(src, raw []uint64) {
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	e.keepMin(&e.vio, src, raw)
}

// checkpointExtra serializes the violation record into the checkpoint
// manifest, so a witness found before a kill survives the resume.
func (e *explorer) checkpointExtra() []byte {
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	if e.vio.a == nil {
		return nil
	}
	buf := make([]byte, 0, 8*(len(e.vio.a)+len(e.vio.b)))
	for _, w := range e.vio.a {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range e.vio.b {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// restoreExtra is checkpointExtra's inverse, applied during resume.
func (e *explorer) restoreExtra(raw []byte) error {
	wpk := e.codec.Words()
	if len(raw) != 16*wpk {
		return fmt.Errorf("verify: checkpoint witness payload is %d bytes, want %d", len(raw), 16*wpk)
	}
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	e.vio = pair{make([]uint64, wpk), make([]uint64, wpk)}
	for i := range e.vio.a {
		e.vio.a[i] = binary.LittleEndian.Uint64(raw[i*8:])
		e.vio.b[i] = binary.LittleEndian.Uint64(raw[(wpk+i)*8:])
	}
	return nil
}

// seed interns the (canonicalized) initial vertices (ℓ, r^n), sweeping the
// enumeration across the worker pool. For general protocols ℓ ranges over
// all of Σ^E; for symmetric (broadcast) protocols it ranges over the
// per-node-uniform labelings only — Σ^n seeds instead of Σ^m, which is what
// makes torus and hypercube instances (m up to 4n) enumerable at all.
//
// Soundness of the restriction: the verdict depends only on the SCCs of the
// states-graph, and every state on a cycle has per-node-uniform labels —
// each in-edge label was written by its source's most recent broadcast
// (countdowns force every node to activate along a cycle), and a broadcast
// writes one label on all out-edges. It remains to reach every such SCC
// from a restricted seed. Take any cycle state (ℓ, c⃗) with ℓ per-node
// uniform; the seed (ℓ, r^n) is restricted, and (ℓ, r^n) simulates any
// admissible activation sequence from (ℓ, c⃗): countdown vectors dominate
// (r ≥ c_v pointwise) and domination is preserved step by step — activated
// nodes reset to r on both sides, idle nodes decrement both sides — so a
// set with cd_v = 1 forcing v on the seed side forces v on the original
// side too, i.e. the original's schedule stays admissible. Replaying the
// schedule that closes the original cycle once makes the two label
// components equal (labels depend only on activations), and countdowns
// agree after each node's first activation, so the run from the seed enters
// the original cycle's SCC. Hence every cycle-bearing SCC — and with it the
// verdict and a witness — is reachable from the restricted seeds.
func (e *explorer) seed(emit explore.Emit) error {
	g := e.p.Graph()
	n, m := g.N(), g.M()
	cd := make([]uint8, n)
	for i := range cd {
		cd[i] = uint8(e.r)
	}
	// Initial outputs are arbitrary in the model; we use zeros. Cycle
	// analysis only inspects states on cycles, where every node has been
	// activated (countdowns force it), so the initial vector washes out.
	outs := make([]core.Bit, n)
	type seedScratch struct {
		key   []uint64
		lab   core.Labeling
		canon *explore.Canon
	}
	pool := sync.Pool{New: func() any {
		sc := &seedScratch{}
		if e.sym != nil {
			sc.canon = e.sym.NewCanon()
		}
		return sc
	}}
	intern := func(sc *seedScratch, l core.Labeling) error {
		sc.key = e.codec.Pack(l, cd, outs, sc.key)
		key := sc.key
		if sc.canon != nil {
			key = sc.canon.Canonicalize(key)
		}
		_, _, err := emit(key)
		return err
	}
	if e.p.Symmetric() {
		return explore.Labelings(e.p.Space(), n, e.workers, func(_ int, assign core.Labeling) error {
			sc := pool.Get().(*seedScratch)
			defer pool.Put(sc)
			if cap(sc.lab) < m {
				sc.lab = make(core.Labeling, m)
			}
			sc.lab = sc.lab[:m]
			spread(g, assign, sc.lab)
			return intern(sc, sc.lab)
		})
	}
	return explore.Labelings(e.p.Space(), m, e.workers, func(_ int, l core.Labeling) error {
		sc := pool.Get().(*seedScratch)
		defer pool.Put(sc)
		return intern(sc, l)
	})
}

// explore runs the engine to a fixed point.
func (e *explorer) explore() error {
	cfg := explore.Config{
		Store:   e.store,
		Workers: e.workers,
		Limit:   e.limit,
		Seed:    e.seed,
		NewExpander: func(w int) explore.Expander {
			ex := e.newExpander()
			e.expanders[w] = ex
			return ex
		},
		Ctx:                e.opts.Context,
		Progress:           e.opts.Progress,
		ProgressInterval:   e.opts.ProgressInterval,
		Metrics:            e.opts.Metrics,
		FrontierMemBytes:   e.opts.SpillMemBytes,
		SpillDir:           e.opts.SpillDir,
		CheckpointDir:      e.opts.CheckpointDir,
		CheckpointInterval: e.opts.CheckpointInterval,
		Resume:             e.opts.Resume,
	}
	if e.opts.CheckpointDir != "" {
		cfg.CheckpointTag = e.checkpointTag()
		cfg.CheckpointExtra = e.checkpointExtra
		cfg.RestoreExtra = e.restoreExtra
	}
	return explore.Run(cfg)
}

// checkpointTag extends the caller's tag with the run geometry, so a
// resume against a checkpoint from a different protocol instance, store
// sizing, or verdict mode fails loudly instead of corrupting the search.
func (e *explorer) checkpointTag() string {
	bs := e.store.(*explore.Bitstate)
	return fmt.Sprintf("%s|v1|wpk=%d|bits=%d|k=%d|r=%d|out=%t|sym=%d|limit=%d",
		e.opts.CheckpointTag, e.codec.Words(), bs.Bits(), bs.K(), e.r, e.trackOutputs, e.sym.Order(), e.limit)
}

// flushStageClocks merges every worker's sampled stage locals into the
// shared timers. Called after the engine has joined its workers, so no
// Clock is concurrently active.
func (e *explorer) flushStageClocks() {
	for _, ex := range e.expanders {
		if ex != nil {
			ex.clkStep.Flush()
			ex.clkPack.Flush()
			ex.clkCanon.Flush()
		}
	}
}
