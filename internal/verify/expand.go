package verify

import (
	"math/bits"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/obs"
)

// stageSampleEvery is the expander stage-timer sampling interval: one in 64
// calls is measured, mirroring the engine's own clocks.
const stageSampleEvery = 64

// expander is one worker's expansion scratch; expansion does zero per-state
// heap allocation once the buffers are warm. One Expand call produces the
// whole successor batch of a state by a subset DP over the packed words and
// canonicalizes it block-wise.
//
// The DP rests on one observation: a node's activation rewrites a fixed,
// per-node set of bits of the packed state — its out-edge label fields, its
// countdown field, and its output bit — and those bit sets are disjoint
// across nodes (every edge has one source). So once each node's reaction is
// known, a successor is two ALU ops per word away from any successor whose
// activation set differs by one node. The per-node rows hold one entry per
// packed word, stored word-major (word j of node v at [j*n+v]), so the DP
// over word j is a plain one-word loop.
type expander struct {
	e       *explorer
	stepper *core.Stepper
	canon   *explore.Canon
	cur     core.Config
	cd      []uint8
	free    []int
	changed []bool // per-successor section-change flags (vs the raw block)
	keepRaw bool   // witness pass: retain the pre-canonical block in raw
	raw     []uint64
	lossy   bool     // bitstate mode: no edge log, on-the-fly self-loop check
	src     []uint64 // lossy mode: the expanded source state (for Absorb)
	log     edgeLog  // the worker's edge log: one run per expanded state

	// Stage telemetry (nil without Options.Metrics): sampled stopwatches
	// over the expansion sub-stages, flushed once after the engine joins
	// its workers (the engine never touches them), plus the edge counter
	// bumped once per absorbed batch.
	clkStep   *obs.Clock
	clkPack   *obs.Clock
	clkCanon  *obs.Clock
	edgeCount *obs.Counter

	clearMask  []uint64 // per word, per node: the bits its activation rewrites
	patchFixed []uint64 // per word, per node: countdown reset to r, the state-free part
	patch      []uint64 // per word, per node, per state: patchFixed | reacted labels | output
	cdOne      []uint64 // per word: 1 in every countdown field (cd−1 base = words − cdOne)
	secMask    []uint64 // per word: mask of the compared section
	labelOff   []int    // per edge: bit offset of its label field
	labelSrc   []int    // per edge: its source node, whose patch row holds it
	outOff     []int    // per node: bit offset of its output bit (nil if untracked)
	reactL     []core.Label
	reactO     []core.Bit
}

// orField ORs v into the width-bit field at bit offset off of a row whose
// word j lives at row[j*stride], splitting the field across two words when
// it straddles a word boundary. v must fit in width bits.
func orField(row []uint64, stride, off int, width uint, v uint64) {
	wi, sh := off>>6, uint(off&63)
	row[wi*stride] |= v << sh
	if sh+width > 64 {
		row[(wi+1)*stride] |= v >> (64 - sh)
	}
}

// subsetDP fills word j of every successor in block (w words per key).
// The successor of free-node subset sub is base patched with the nodes in
// sub, derived in two ALU ops from the successor of sub without its lowest
// node. With forced nodes every subset is admissible and sub sits at slot
// sub; without, the empty subset is not, and sub sits at slot sub−1. (A
// function of its own keeps the loop's operands in registers.)
func subsetDP(block []uint64, w, j int, base uint64, clr, pat []uint64, free []int, forced bool) {
	pat = pat[:len(clr)]
	end := 1 << len(free)
	if forced {
		block[j] = base
		for sub := 1; sub < end; sub++ {
			v := free[bits.TrailingZeros(uint(sub))]
			block[sub*w+j] = block[(sub&(sub-1))*w+j]&^clr[v] | pat[v]
		}
		return
	}
	for sub := 1; sub < end; sub++ {
		prev := base
		if rest := sub & (sub - 1); rest != 0 {
			prev = block[(rest-1)*w+j]
		}
		v := free[bits.TrailingZeros(uint(sub))]
		block[(sub-1)*w+j] = prev&^clr[v] | pat[v]
	}
}

// markChanged folds word j of every key in block (w words per key) into
// the per-key section-change flags: key i changed iff it differs from the
// source word src under the section mask sec in some word. Word 0
// overwrites the flags, later words OR into them.
func markChanged(changed []bool, block []uint64, w, j int, src, sec uint64) {
	for i := range changed {
		c := (block[i*w+j]^src)&sec != 0
		if j > 0 {
			c = c || changed[i]
		}
		changed[i] = c
	}
}

func (e *explorer) newExpander() *expander {
	g := e.p.Graph()
	n, m := g.N(), g.M()
	c := e.codec
	w := c.Words()
	ex := &expander{
		e:          e,
		stepper:    core.NewStepper(e.p),
		cd:         make([]uint8, n),
		cur:        core.Config{Labels: make(core.Labeling, m)},
		free:       make([]int, 0, n),
		clearMask:  make([]uint64, w*n),
		patchFixed: make([]uint64, w*n),
		patch:      make([]uint64, w*n),
		cdOne:      make([]uint64, w),
		secMask:    make([]uint64, w),
		labelOff:   make([]int, m),
		labelSrc:   make([]int, m),
		reactL:     make([]core.Label, m),
		reactO:     make([]core.Bit, n),
	}
	if e.sym != nil {
		ex.canon = e.sym.NewCanon()
	}
	if e.store.Lossy() {
		ex.lossy = true
		// The self-loop check needs the raw successor block and the source
		// state; without symmetry no violation is detectable (a raw
		// self-loop cannot change the section), so skip the copies.
		ex.keepRaw = ex.canon != nil
	}
	if m := e.opts.Metrics; m != nil {
		ex.clkStep = obs.NewClock(m.Timer(MetricStepNs), stageSampleEvery)
		ex.clkPack = obs.NewClock(m.Timer(MetricPackNs), stageSampleEvery)
		ex.clkCanon = obs.NewClock(m.Timer(MetricCanonNs), stageSampleEvery)
		ex.edgeCount = m.Counter(MetricEdges)
	}
	lBits, cdBits := uint(c.LabelFieldBits()), uint(c.CountdownFieldBits())
	lMask, cdMask := uint64(1)<<lBits-1, uint64(1)<<cdBits-1
	for eid := range ex.labelOff {
		off, v := c.LabelOffset(eid), int(g.Edge(graph.EdgeID(eid)).From)
		ex.labelOff[eid], ex.labelSrc[eid] = off, v
		orField(ex.clearMask[v:], n, off, lBits, lMask)
	}
	if c.HasOutputs() {
		ex.outOff = make([]int, n)
		for v := range ex.outOff {
			ex.outOff[v] = c.OutputOffset(v)
			orField(ex.clearMask[v:], n, ex.outOff[v], 1, 1)
		}
	}
	for v := 0; v < n; v++ {
		cdOff := c.CountdownOffset(v)
		orField(ex.clearMask[v:], n, cdOff, cdBits, cdMask)
		orField(ex.patchFixed[v:], n, cdOff, cdBits, uint64(e.r))
		orField(ex.cdOne, 1, cdOff, cdBits, 1)
	}
	if e.trackOutputs {
		for _, off := range ex.outOff {
			orField(ex.secMask, 1, off, 1, 1)
		}
	} else {
		for _, off := range ex.labelOff {
			orField(ex.secMask, 1, off, lBits, lMask)
		}
	}
	return ex
}

// Expand implements explore.Expander: fill the batch with the packed
// (canonicalized) successors of the state in words — one per admissible
// activation set T ⊇ {i : x_i = 1} — and record each successor's
// section-change flag against the raw (pre-canonicalization) block.
// Successor i is the i-th admissible free-node subset in ascending bitmask
// order.
//
// Every node's reaction is computed once and turned into a per-node
// (clearMask, patch) rewrite of the packed words; the block then falls out
// of a subset DP in which each successor is derived from the successor one
// activation short of it, with no configuration materialization, no
// field-by-field packing, and no per-successor copying.
func (ex *expander) Expand(id int32, words []uint64, b *explore.Batch) error {
	e := ex.e
	n, w := e.p.Graph().N(), len(words)
	ex.cur.Labels = e.codec.UnpackLabels(words, ex.cur.Labels)
	ex.cd = e.codec.UnpackCountdown(words, ex.cd)
	ex.clkStep.Start()
	ex.stepper.Reactions(e.x, ex.cur, ex.reactL, ex.reactO)
	ex.clkStep.Stop()
	ex.clkPack.Start()
	lBits := uint(e.codec.LabelFieldBits())
	copy(ex.patch, ex.patchFixed)
	for eid, l := range ex.reactL {
		orField(ex.patch[ex.labelSrc[eid]:], n, ex.labelOff[eid], lBits, uint64(l))
	}
	for v, off := range ex.outOff {
		orField(ex.patch[v:], n, off, 1, uint64(ex.reactO[v]))
	}
	ex.free = ex.free[:0]
	for v, c := range ex.cd {
		if c != 1 {
			ex.free = append(ex.free, v)
		}
	}
	f := len(ex.free)
	forced := f < n
	count := 1 << f
	if !forced {
		count-- // the empty activation set is inadmissible
	}
	block := b.Alloc(count)
	var borrow uint64
	for j := 0; j < w; j++ {
		clr, pat := ex.clearMask[j*n:(j+1)*n], ex.patch[j*n:(j+1)*n]
		// Word j of the base: words − cdOne with the forced nodes patched
		// in. Countdowns are stored raw in [1, r], so the subtraction never
		// borrows out of a countdown field; only a field straddling words
		// j and j+1 passes a borrow between them. Forced fields (cd = 1)
		// briefly hold 0 and are patched to r.
		var base uint64
		base, borrow = bits.Sub64(words[j], ex.cdOne[j], borrow)
		for v, c := range ex.cd {
			if c == 1 {
				base = base&^clr[v] | pat[v]
			}
		}
		subsetDP(block, w, j, base, clr, pat, ex.free, forced)
	}
	ex.clkPack.Stop()

	if cap(ex.changed) < count {
		ex.changed = make([]bool, count)
	}
	ex.changed = ex.changed[:count]
	for j := range words {
		markChanged(ex.changed, block, w, j, words[j], ex.secMask[j])
	}
	if ex.keepRaw {
		ex.raw = append(ex.raw[:0], block...)
	}
	if ex.lossy && ex.keepRaw {
		ex.src = append(ex.src[:0], words...)
	}
	if ex.canon != nil {
		ex.clkCanon.Start()
		ex.canon.CanonicalizeBatch(block, count)
		ex.clkCanon.Stop()
	}
	return nil
}

// Absorb appends the expanded state's out-edge run to the worker's edge
// log once the engine has interned the batch and filled in the store IDs.
// The engine expands every state exactly once and absorbs its whole
// successor block in one call, so each state owns exactly one run. In
// bitstate mode there is no edge log; instead Absorb runs the on-the-fly
// violation check.
func (ex *expander) Absorb(id int32, b *explore.Batch) error {
	ex.edgeCount.Add(int64(len(b.IDs)))
	if ex.lossy {
		return ex.absorbLossy(b)
	}
	ex.log.appendRow(id, b.IDs, ex.changed)
	return nil
}

// absorbLossy is the bitstate-mode violation check: a successor whose
// canonical key equals the (canonical) source state is a quotient
// self-loop, and if the compared section changed along the raw transition
// it proves a genuine oscillation (the raw cycle rotates the section
// around the ring forever; see the violation criterion at stabilization).
// This is the only cycle shape detectable without the edge log, so a
// bitstate run can miss longer oscillations — which is why its clean
// verdict is "no violation found", not "stabilizing". Without symmetry
// there is nothing to check: a raw self-loop cannot change the section.
func (ex *expander) absorbLossy(b *explore.Batch) error {
	if ex.canon == nil {
		return nil
	}
	wpk := b.WordsPerKey()
	for i := 0; i < b.Len(); i++ {
		if !ex.changed[i] {
			continue
		}
		if !wordsEqual(b.Key(i), ex.src) {
			continue
		}
		ex.e.recordViolation(ex.src, ex.raw[i*wpk:(i+1)*wpk])
	}
	return nil
}

// wordsEqual compares two packed states.
func wordsEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
