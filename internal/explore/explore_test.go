package explore

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
	"stateless/internal/obs"
)

func TestDenseStoreInternReadRank(t *testing.T) {
	d := NewDense(10)
	keys := []uint64{0, 5, 1023, 512, 5, 0}
	var ids []int32
	for _, k := range keys {
		id, fresh, err := d.Intern([]uint64{k})
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(k) {
			t.Fatalf("dense ID of %d is %d, want the key itself", k, id)
		}
		if fresh != (len(ids) < 4) {
			t.Fatalf("key %d at position %d: fresh=%v", k, len(ids), fresh)
		}
		ids = append(ids, id)
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	if total := d.Compact(); total != 4 {
		t.Fatalf("Compact = %d, want 4", total)
	}
	// Ranks follow numeric key order: 0, 5, 512, 1023.
	wantRank := map[int32]int32{0: 0, 5: 1, 512: 2, 1023: 3}
	for id, want := range wantRank {
		if got := d.Rank(id); got != want {
			t.Fatalf("Rank(%d) = %d, want %d", id, got, want)
		}
		words := d.WordsAt(want, nil)
		if words[0] != uint64(id) {
			t.Fatalf("WordsAt(%d) = %d, want %d", want, words[0], id)
		}
	}
}

func TestStoresAgree(t *testing.T) {
	// Interning the same random key stream into both stores must yield the
	// same visited set (same Len, same multiset of keys by rank).
	rng := rand.New(rand.NewPCG(7, 7))
	dense := NewDense(14)
	hash := NewHash(1)
	for i := 0; i < 4000; i++ {
		k := []uint64{rng.Uint64N(1 << 14)}
		_, df, err := dense.Intern(k)
		if err != nil {
			t.Fatal(err)
		}
		_, hf, err := hash.Intern(k)
		if err != nil {
			t.Fatal(err)
		}
		if df != hf {
			t.Fatalf("freshness disagrees on key %d at step %d", k[0], i)
		}
	}
	dt, ht := dense.Compact(), hash.Compact()
	if dt != ht {
		t.Fatalf("dense total %d != hash total %d", dt, ht)
	}
	seen := map[uint64]bool{}
	for r := int32(0); r < int32(ht); r++ {
		seen[hash.WordsAt(r, nil)[0]] = true
	}
	for r := int32(0); r < int32(dt); r++ {
		if !seen[dense.WordsAt(r, nil)[0]] {
			t.Fatalf("dense state %d missing from hash store", dense.WordsAt(r, nil)[0])
		}
	}
}

func TestDenseStoreConcurrent(t *testing.T) {
	d := NewDense(12)
	const workers = 8
	var wg sync.WaitGroup
	freshCount := make([]int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			key := make([]uint64, 1)
			for i := 0; i < 10000; i++ {
				key[0] = rng.Uint64N(1 << 12)
				_, fresh, err := d.Intern(key)
				if err != nil {
					t.Error(err)
					return
				}
				if fresh {
					freshCount[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	totalFresh := 0
	for _, c := range freshCount {
		totalFresh += c
	}
	if totalFresh != d.Len() {
		t.Fatalf("fresh interns %d != Len %d — a state was double-counted", totalFresh, d.Len())
	}
}

// TestHashStoreConcurrent interns overlapping key streams from 8
// goroutines, half through Intern and half through InternBatch, into a
// store that starts at 128 slots per shard: while some goroutines take the
// lock-free hit path, others insert, add arena pages and rehash. Every key
// must get one ID, exactly one intern must report it fresh, and after
// Compact every ID must rank to a distinct state whose words are the key.
func TestHashStoreConcurrent(t *testing.T) {
	for _, w := range []int{1, 3} {
		const (
			workers = 8
			keys    = 3 << 15 // ~1,536 per shard: 2 arena pages, 4 rehashes
			stream  = keys / 2
		)
		key := func(i int, dst []uint64) {
			dst[0] = uint64(i) * 0x9e3779b97f4a7c15
			for j := 1; j < w; j++ {
				dst[j] = uint64(i)<<j ^ uint64(j)
			}
		}
		h := NewHash(w)
		initialCap := h.Stats().Capacity
		got := make([][]int32, workers) // got[g][i]: the ID goroutine g saw for key i, -1 if none
		freshCount := make([]int, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func(g int) {
				defer wg.Done()
				ids := make([]int32, keys)
				for i := range ids {
					ids[i] = -1
				}
				got[g] = ids
				// Goroutine g walks a shuffled window of half the key space
				// starting at g·keys/workers, so each key is interned by
				// about four goroutines at different times.
				rng := rand.New(rand.NewPCG(uint64(g), uint64(w)))
				order := make([]int, stream)
				for j := range order {
					order[j] = (g*keys/workers + j) % keys
				}
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				// Batches of up to 200 keys span several of
				// InternBatch's lookahead windows.
				const maxBatch = 200
				block := make([]uint64, maxBatch*w)
				bids := make([]int32, maxBatch)
				bfresh := make([]bool, maxBatch)
				for j := 0; j < len(order); {
					n := min(1+rng.IntN(maxBatch), len(order)-j)
					for k := 0; k < n; k++ {
						key(order[j+k], block[k*w:(k+1)*w])
					}
					if g%2 == 0 {
						if err := h.InternBatch(block[:n*w], bids[:n], bfresh[:n]); err != nil {
							t.Error(err)
							return
						}
					} else {
						for k := 0; k < n; k++ {
							id, fresh, err := h.Intern(block[k*w : (k+1)*w])
							if err != nil {
								t.Error(err)
								return
							}
							bids[k], bfresh[k] = id, fresh
						}
					}
					for k := 0; k < n; k++ {
						ids[order[j+k]] = bids[k]
						if bfresh[k] {
							freshCount[g]++
						}
					}
					j += n
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		totalFresh := 0
		for _, c := range freshCount {
			totalFresh += c
		}
		if totalFresh != h.Len() || h.Len() != keys {
			t.Fatalf("w=%d: %d fresh interns, Len %d, want %d each", w, totalFresh, h.Len(), keys)
		}
		if st := h.Stats(); st.Capacity < 8*initialCap || st.States <= int64(len(h.shards))<<pageShift {
			t.Fatalf("w=%d: %+v did not grow past several rehashes and one page per shard", w, st)
		}
		idOf := make([]int32, keys)
		for i := range idOf {
			idOf[i] = -1
			for g := range got {
				switch id := got[g][i]; {
				case id < 0:
				case idOf[i] < 0:
					idOf[i] = id
				case id != idOf[i]:
					t.Fatalf("w=%d: key %d has IDs %d and %d", w, i, idOf[i], id)
				}
			}
		}
		if total := h.Compact(); total != keys {
			t.Fatalf("w=%d: Compact = %d, want %d", w, total, keys)
		}
		ranked := make([]bool, keys)
		want := make([]uint64, w)
		for i, id := range idOf {
			r := h.Rank(id)
			if r < 0 || int(r) >= keys || ranked[r] {
				t.Fatalf("w=%d: key %d (ID %d) has rank %d, out of range or taken", w, i, id, r)
			}
			ranked[r] = true
			key(i, want)
			if words := h.WordsAt(r, nil); !slices.Equal(words, want) {
				t.Fatalf("w=%d: WordsAt(Rank(%d)) = %x, want %x", w, id, words, want)
			}
		}
	}
}

// countingExpander walks a synthetic successor function over [0, n): state k
// has successors (2k)%n and (2k+3)%n.
type countingExpander struct {
	n        uint64
	mu       *sync.Mutex
	expanded map[uint64]int
	absorbed int
}

func (c *countingExpander) Expand(id int32, words []uint64, b *Batch) error {
	c.mu.Lock()
	c.expanded[words[0]]++
	c.mu.Unlock()
	key := make([]uint64, 1)
	for _, succ := range []uint64{(2 * words[0]) % c.n, (2*words[0] + 3) % c.n} {
		key[0] = succ
		b.Append(key)
	}
	return nil
}

func (c *countingExpander) Absorb(id int32, b *Batch) error {
	c.mu.Lock()
	c.absorbed += b.Len()
	c.mu.Unlock()
	return nil
}

func TestRunExpandsEveryStateOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		mu := &sync.Mutex{}
		expanded := map[uint64]int{}
		store := NewDense(10)
		err := Run(Config{
			Store:   store,
			Workers: workers,
			Limit:   1 << 10,
			Seed: func(emit Emit) error {
				_, _, err := emit([]uint64{1})
				return err
			},
			NewExpander: func(int) Expander {
				return &countingExpander{n: 1 << 10, mu: mu, expanded: expanded}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range expanded {
			if c != 1 {
				t.Fatalf("workers=%d: state %d expanded %d times", workers, k, c)
			}
		}
		if store.Len() != len(expanded) {
			t.Fatalf("workers=%d: %d states interned, %d expanded", workers, store.Len(), len(expanded))
		}
	}
}

func TestRunLimit(t *testing.T) {
	err := Run(Config{
		Store:   NewDense(10),
		Workers: 2,
		Limit:   10,
		Seed: func(emit Emit) error {
			_, _, err := emit([]uint64{1})
			return err
		},
		NewExpander: func(int) Expander {
			return &countingExpander{n: 1 << 10, mu: &sync.Mutex{}, expanded: map[uint64]int{}}
		},
	})
	if err == nil {
		t.Fatal("expected the 10-state limit to trip")
	}
}

func TestLabelingsMatchesSequential(t *testing.T) {
	space := core.MustLabelSpace(3)
	const m = 8 // 6561 labelings → two chunks, exercising the odometer seek
	var mu sync.Mutex
	got := map[int][]uint64{}
	err := Labelings(space, m, 5, func(chunk int, l core.Labeling) error {
		v := uint64(0)
		for i := m - 1; i >= 0; i-- {
			v = v*3 + uint64(l[i])
		}
		mu.Lock()
		got[chunk] = append(got[chunk], v)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flattened in chunk order the sweep must reproduce 0..3^7-1 exactly.
	var flat []uint64
	for c := 0; ; c++ {
		vs, ok := got[c]
		if !ok {
			break
		}
		flat = append(flat, vs...)
	}
	if len(flat) != 6561 {
		t.Fatalf("enumerated %d labelings, want 6561", len(flat))
	}
	for i, v := range flat {
		if v != uint64(i) {
			t.Fatalf("position %d holds labeling %d — order broken", i, v)
		}
	}
}

// ringSymmetry builds a Symmetry over the unidirectional n-ring with a
// q-ary label space and countdowns in [0, r].
func ringSymmetry(t *testing.T, n int, q uint64, r int, outputs bool) (*Symmetry, *enc.Codec) {
	t.Helper()
	g := graph.Ring(n)
	p, err := core.NewUniformProtocol(g, core.MustLabelSpace(q),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			out[0] = in[0]
			return 0
		})
	if err != nil {
		t.Fatal(err)
	}
	codec := enc.NewStateCodec(p.Space(), g.M(), g.N(), r, outputs)
	sym := NewSymmetry(p, make(core.Input, n), codec)
	if sym == nil {
		t.Fatalf("ring %d: symmetry unexpectedly inapplicable", n)
	}
	if sym.Order() != n {
		t.Fatalf("ring %d: group order %d, want %d", n, sym.Order(), n)
	}
	return sym, codec
}

// TestCanonicalizeMinimality is the property test for canonical-rotation
// minimality: on random ring states, the canonical form must be (a) a
// member of the orbit, (b) no larger than any rotation of the state, (c)
// identical across the whole orbit, and (d) idempotent.
func TestCanonicalizeMinimality(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for _, n := range []int{3, 4, 5, 6} {
		for _, q := range []uint64{2, 3} {
			const r = 2
			sym, codec := ringSymmetry(t, n, q, r, true)
			canon := sym.NewCanon()
			for trial := 0; trial < 200; trial++ {
				labels := make(core.Labeling, n)
				cd := make([]uint8, n)
				out := make([]core.Bit, n)
				for i := 0; i < n; i++ {
					labels[i] = core.Label(rng.Uint64N(q))
					cd[i] = uint8(rng.IntN(r + 1))
					out[i] = core.Bit(rng.IntN(2))
				}
				orig := codec.Pack(labels, cd, out, nil)
				got := append([]uint64(nil), orig...)
				canon.Canonicalize(got)

				// Generate the full orbit by brute-force rotation.
				var orbit [][]uint64
				rl := make(core.Labeling, n)
				rcd := make([]uint8, n)
				rout := make([]core.Bit, n)
				for s := 0; s < n; s++ {
					for i := 0; i < n; i++ {
						// Rotation by s maps node/edge i to i+s.
						rl[(i+s)%n] = labels[i]
						rcd[(i+s)%n] = cd[i]
						rout[(i+s)%n] = out[i]
					}
					orbit = append(orbit, codec.Pack(rl, rcd, rout, nil))
				}
				inOrbit := false
				for _, member := range orbit {
					if wordsLess(member, got) {
						t.Fatalf("n=%d q=%d: orbit member %x smaller than canonical %x", n, q, member, got)
					}
					if !wordsLess(member, got) && !wordsLess(got, member) {
						inOrbit = true
					}
					// (c) every member canonicalizes to the same form.
					mc := append([]uint64(nil), member...)
					canon.Canonicalize(mc)
					for w := range mc {
						if mc[w] != got[w] {
							t.Fatalf("n=%d q=%d: orbit members canonicalize differently: %x vs %x", n, q, mc, got)
						}
					}
				}
				if !inOrbit {
					t.Fatalf("n=%d q=%d: canonical form %x is not in the orbit of %x", n, q, got, orig)
				}
				// (d) idempotence.
				again := append([]uint64(nil), got...)
				canon.Canonicalize(again)
				for w := range again {
					if again[w] != got[w] {
						t.Fatalf("n=%d q=%d: canonicalization not idempotent", n, q)
					}
				}
			}
		}
	}
}

func TestSymmetryGates(t *testing.T) {
	g := graph.Ring(4)
	uniform, _ := core.NewUniformProtocol(g, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = in[0]; return 0 })
	codec := enc.NewStateCodec(uniform.Space(), g.M(), g.N(), 2, false)

	if NewSymmetry(uniform, make(core.Input, 4), codec) == nil {
		t.Error("uniform protocol + zero input on a ring: quotient must apply")
	}
	// Non-invariant input kills the quotient.
	if NewSymmetry(uniform, core.Input{1, 0, 0, 0}, codec) != nil {
		t.Error("asymmetric input: quotient must be rejected")
	}
	// Non-uniform protocol (even with identical closures) kills it.
	react := func(in []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = in[0]; return 0 }
	nonUniform, _ := core.NewProtocol(g, core.BinarySpace(),
		[]core.Reaction{react, react, react, react})
	if NewSymmetry(nonUniform, make(core.Input, 4), codec) != nil {
		t.Error("NewProtocol-built protocol: quotient must be rejected")
	}
	// Asymmetric topology: trivial group.
	dag := graph.MustNew(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}})
	up, _ := core.NewUniformProtocol(dag, core.BinarySpace(),
		func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			for i := range out {
				out[i] = 0
			}
			return 0
		})
	dagCodec := enc.NewStateCodec(up.Space(), dag.M(), dag.N(), 2, false)
	if NewSymmetry(up, make(core.Input, 3), dagCodec) != nil {
		t.Error("asymmetric topology: quotient must be trivial")
	}
}

// FuzzCanonicalizeRotation fuzzes canonical-rotation minimality on the
// 5-ring: for arbitrary packed label bytes, the canonical form must be the
// minimum over all five rotations.
func FuzzCanonicalizeRotation(f *testing.F) {
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(0x2ad), uint8(0x31))
	f.Fuzz(func(t *testing.T, rawLabels uint16, rawCd uint8) {
		const n, q, r = 5, 3, 1
		g := graph.Ring(n)
		p, err := core.NewUniformProtocol(g, core.MustLabelSpace(q),
			func(in []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = in[0]; return 0 })
		if err != nil {
			t.Fatal(err)
		}
		codec := enc.NewStateCodec(p.Space(), n, n, r, false)
		sym := NewSymmetry(p, make(core.Input, n), codec)
		labels := make(core.Labeling, n)
		cd := make([]uint8, n)
		for i := 0; i < n; i++ {
			labels[i] = core.Label(uint64(rawLabels>>(3*i)) % q)
			cd[i] = (rawCd >> i) & 1
		}
		key := codec.Pack(labels, cd, nil, nil)
		got := append([]uint64(nil), key...)
		sym.NewCanon().Canonicalize(got)
		rl := make(core.Labeling, n)
		rcd := make([]uint8, n)
		best := append([]uint64(nil), key...)
		for s := 1; s < n; s++ {
			for i := 0; i < n; i++ {
				rl[(i+s)%n] = labels[i]
				rcd[(i+s)%n] = cd[i]
			}
			cand := codec.Pack(rl, rcd, nil, nil)
			if wordsLess(cand, best) {
				copy(best, cand)
			}
		}
		if got[0] != best[0] {
			t.Fatalf("canonical %x != brute-force orbit minimum %x", got, best)
		}
	})
}

// TestInternBatchMatchesIntern feeds the same key stream — duplicates
// inside batches included — through per-key Intern on one store and
// InternBatch on another, for the dense store and for the hash store at one
// and three words per key: IDs, freshness, the final visited set and the
// probe telemetry must agree. Batches run up to 300 keys, past the hash
// store's internWindow-key lookahead as the engine's blocks of up to
// 2^n − 1 successors do; some duplicates straddle a window boundary, and
// the 2^14-key space grows every shard past its first rehash, so keys are
// inserted and shards rehashed between a window's home-slot loads and its
// resolution.
func TestInternBatchMatchesIntern(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    int
		mk   func() Store
	}{
		{"dense", 1, func() Store { return NewDense(14) }},
		{"hash/w=1", 1, func() Store { return NewHash(1) }},
		{"hash/w=3", 3, func() Store { return NewHash(3) }},
	} {
		rng := rand.New(rand.NewPCG(21, uint64(tc.w)))
		w := tc.w
		single, batched := tc.mk(), tc.mk()
		for round := 0; round < 200; round++ {
			count := 1 + rng.IntN(300)
			vals := make([]uint64, count)
			for i := range vals {
				vals[i] = rng.Uint64N(1 << 14)
			}
			if count > 2 && rng.IntN(2) == 0 {
				vals[count-1] = vals[0] // force an in-batch duplicate
			}
			if count > internWindow && rng.IntN(2) == 0 {
				// A duplicate on each side of a window boundary.
				vals[internWindow+rng.IntN(count-internWindow)] = vals[rng.IntN(internWindow)]
			}
			block := make([]uint64, count*w)
			for i, v := range vals {
				block[i*w] = v
				for j := 1; j < w; j++ {
					block[i*w+j] = v*0x9e3779b97f4a7c15 ^ uint64(j)
				}
			}
			ids := make([]int32, count)
			fresh := make([]bool, count)
			if err := batched.InternBatch(block, ids, fresh); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < count; i++ {
				id, fr, err := single.Intern(block[i*w : (i+1)*w])
				if err != nil {
					t.Fatal(err)
				}
				if id != ids[i] || fr != fresh[i] {
					t.Fatalf("%s round %d key %d (%d): batch (%d,%v) vs single (%d,%v)",
						tc.name, round, i, vals[i], ids[i], fresh[i], id, fr)
				}
			}
		}
		if single.Len() != batched.Len() {
			t.Fatalf("%s: Len %d (single) vs %d (batched)", tc.name, single.Len(), batched.Len())
		}
		// Probe telemetry is counted per call, so it must not depend on
		// how the keys were grouped into calls.
		if ss, bs := single.Stats(), batched.Stats(); ss != bs {
			t.Fatalf("%s: Stats %+v (single) vs %+v (batched)", tc.name, ss, bs)
		} else if tc.name != "dense" && (ss.Probes == 0 || ss.MaxProbe == 0 || ss.Capacity <= hashInitialSlots<<shardBits) {
			t.Fatalf("%s: no probes counted or no shard grown over %d states: %+v", tc.name, ss.States, ss)
		}
	}
}

// TestHashStoreProbesCountedOnce pins that a miss, which probes once
// without the lock and again under it, counts its chain once. Below the
// first rehash, linear probing leaves every key where it was inserted, so
// re-interning all keys (hits only) passes exactly the occupied slots their
// insertions passed.
func TestHashStoreProbesCountedOnce(t *testing.T) {
	h := NewHash(1)
	initial := h.Stats()
	block := make([]uint64, 1500) // ~23 keys per 128-slot shard: no rehash
	for i := range block {
		block[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	ids := make([]int32, len(block))
	fresh := make([]bool, len(block))
	if err := h.InternBatch(block, ids, fresh); err != nil {
		t.Fatal(err)
	}
	inserted := h.Stats()
	if err := h.InternBatch(block, ids, fresh); err != nil {
		t.Fatal(err)
	}
	hits := h.Stats().Probes - inserted.Probes
	if inserted.Capacity != initial.Capacity || inserted.States != int64(len(block)) {
		t.Fatalf("store grew or lost keys: %+v, initially %+v", inserted, initial)
	}
	if inserted.Probes == 0 || inserted.Probes != hits {
		t.Fatalf("inserts counted %d probes, re-interning them counted %d; want equal and > 0",
			inserted.Probes, hits)
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(Config{
		Store:   NewDense(10),
		Workers: 2,
		Ctx:     ctx,
		Seed: func(emit Emit) error {
			_, _, err := emit([]uint64{1})
			return err
		},
		NewExpander: func(int) Expander {
			return &countingExpander{n: 1 << 10, mu: &sync.Mutex{}, expanded: map[uint64]int{}}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled context: err = %v, want ErrCanceled", err)
	}
}

// cancelingExpander cancels the context after expanding k states.
type cancelingExpander struct {
	countingExpander
	cancel   func()
	after    int
	expandsN int
}

func (c *cancelingExpander) Expand(id int32, words []uint64, b *Batch) error {
	c.expandsN++
	if c.expandsN == c.after {
		c.cancel()
	}
	return c.countingExpander.Expand(id, words, b)
}

func TestRunCanceledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Run(Config{
		Store:   NewDense(10),
		Workers: 1,
		Ctx:     ctx,
		Seed: func(emit Emit) error {
			_, _, err := emit([]uint64{1})
			return err
		},
		NewExpander: func(int) Expander {
			return &cancelingExpander{
				countingExpander: countingExpander{n: 1 << 10, mu: &sync.Mutex{}, expanded: map[uint64]int{}},
				cancel:           cancel,
				after:            3,
			}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancel: err = %v, want ErrCanceled", err)
	}
}

// idCheckingExpander is a countingExpander that also checks the store ID
// the frontier hands back with each state: re-interning the state's key
// must answer that same ID, not fresh.
type idCheckingExpander struct {
	countingExpander
	store Store
	bad   *atomic.Int64
}

func (c *idCheckingExpander) Expand(id int32, words []uint64, b *Batch) error {
	if got, fresh, err := c.store.Intern(words); err != nil || fresh || got != id {
		c.bad.Add(1)
	}
	return c.countingExpander.Expand(id, words, b)
}

// TestRunExactStoreSpills runs both exact stores with a frontier budget
// small enough to spill on nearly every push: every state must still be
// expanded exactly once with its own store ID, the run must report
// written chunks, and no chunk file may outlive the run.
func TestRunExactStoreSpills(t *testing.T) {
	for name, store := range map[string]Store{"dense": NewDense(10), "hash": NewHash(1)} {
		mu := &sync.Mutex{}
		expanded := map[uint64]int{}
		var bad atomic.Int64
		dir := t.TempDir()
		reg := obs.NewRegistry()
		err := Run(Config{
			Store:            store,
			Workers:          2,
			Limit:            1 << 10,
			FrontierMemBytes: 64,
			SpillDir:         dir,
			Metrics:          reg,
			Seed: func(emit Emit) error {
				_, _, err := emit([]uint64{1})
				return err
			},
			NewExpander: func(int) Expander {
				return &idCheckingExpander{
					countingExpander: countingExpander{n: 1 << 10, mu: mu, expanded: expanded},
					store:            store,
					bad:              &bad,
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := bad.Load(); n != 0 {
			t.Fatalf("%s: %d states expanded under a wrong store ID", name, n)
		}
		for k, c := range expanded {
			if c != 1 {
				t.Fatalf("%s: state %d expanded %d times", name, k, c)
			}
		}
		if store.Len() != len(expanded) {
			t.Fatalf("%s: %d states interned, %d expanded", name, store.Len(), len(expanded))
		}
		if chunks := reg.Snapshot()[MetricSpillChunks].Value; chunks == 0 {
			t.Fatalf("%s: tiny frontier budget wrote no spill chunks", name)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Fatalf("%s: leftover spill file %s", name, e.Name())
		}
	}
}

func TestRunProgress(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	mu.Lock() // released only after Run returns; callbacks contend fairly
	mu.Unlock()
	err := Run(Config{
		Store:   NewDense(10),
		Workers: 2,
		Seed: func(emit Emit) error {
			_, _, err := emit([]uint64{1})
			return err
		},
		NewExpander: func(int) Expander {
			return &countingExpander{n: 1 << 10, mu: &sync.Mutex{}, expanded: map[uint64]int{}}
		},
		Progress:         func(p Progress) { mu.Lock(); snaps = append(snaps, p); mu.Unlock() },
		ProgressInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	final := snaps[len(snaps)-1]
	if final.States == 0 || final.Expanded != final.States || final.Frontier != 0 {
		t.Fatalf("final snapshot inconsistent: %+v", final)
	}
	if final.StatesPerSec <= 0 {
		t.Fatalf("final snapshot has no rate: %+v", final)
	}
}

// TestCanonicalizeBatchMatchesSingle pins the batch canonicalizer to the
// per-key path on random blocks, for both the single-word table path and
// the multi-word generic path.
func TestCanonicalizeBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	for _, tc := range []struct {
		n int
		q uint64
	}{{5, 3}, {6, 3}, {7, 2}, {16, 4}} { // 16 nodes × 2-bit labels + countdowns → multi-word
		sym, codec := ringSymmetry(t, tc.n, tc.q, 3, true)
		canon := sym.NewCanon()
		labels := make(core.Labeling, tc.n)
		cd := make([]uint8, tc.n)
		out := make([]core.Bit, tc.n)
		for trial := 0; trial < 50; trial++ {
			count := 1 + rng.IntN(64)
			block := make([]uint64, 0, count*codec.Words())
			for s := 0; s < count; s++ {
				for i := 0; i < tc.n; i++ {
					labels[i] = core.Label(rng.Uint64N(tc.q))
					cd[i] = uint8(rng.IntN(4))
					out[i] = core.Bit(rng.IntN(2))
				}
				block = append(block, codec.Pack(labels, cd, out, nil)...)
			}
			want := append([]uint64(nil), block...)
			for s := 0; s < count; s++ {
				canon.Canonicalize(want[s*codec.Words() : (s+1)*codec.Words()])
			}
			canon.CanonicalizeBatch(block, count)
			for i := range block {
				if block[i] != want[i] {
					t.Fatalf("n=%d q=%d trial %d word %d: batch %x != single %x", tc.n, tc.q, trial, i, block[i], want[i])
				}
			}
		}
	}
}

// FuzzBatchPackCanonRoundTrip fuzzes the batch canonicalizer against the
// single-state one: a block of 5-ring states is packed, batch-
// canonicalized, and unpacked; every state must agree with per-state
// Canonicalize, and its canonical labels must stay in the original orbit.
func FuzzBatchPackCanonRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(0x123456789abcdef), uint16(0x5a5a))
	f.Fuzz(func(t *testing.T, rawA uint64, rawB uint16) {
		const n, q, r = 5, 3, 2
		sym, codec := func() (*Symmetry, *enc.Codec) {
			g := graph.Ring(n)
			p, err := core.NewUniformProtocol(g, core.MustLabelSpace(q),
				func(in []core.Label, _ core.Bit, out []core.Label) core.Bit { out[0] = in[0]; return 0 })
			if err != nil {
				t.Fatal(err)
			}
			codec := enc.NewStateCodec(p.Space(), n, n, r, false)
			return NewSymmetry(p, make(core.Input, n), codec), codec
		}()
		if sym == nil {
			t.Fatal("ring symmetry inapplicable")
		}
		// Derive a small batch of states from the fuzz words.
		const count = 3
		labels := make(core.Labeling, count*n)
		cds := make([]uint8, count*n)
		for i := range labels {
			labels[i] = core.Label((rawA >> (2 * uint(i))) % q)
			cds[i] = uint8((uint64(rawB) >> uint(i%16)) % (r + 1))
		}
		block := make([]uint64, count)
		for s := 0; s < count; s++ {
			codec.Pack(labels[s*n:(s+1)*n], cds[s*n:(s+1)*n], nil, block[s:s+1])
		}
		canon := sym.NewCanon()
		// Reference: per-state single path.
		var wantKey []uint64
		for s := 0; s < count; s++ {
			wantKey = codec.Pack(labels[s*n:(s+1)*n], cds[s*n:(s+1)*n], nil, wantKey)
			canon.Canonicalize(wantKey)
			gotKey := append([]uint64(nil), block[s:s+1]...)
			canon.CanonicalizeBatch(gotKey, 1)
			if gotKey[0] != wantKey[0] {
				t.Fatalf("state %d: batch canon %x != single canon %x", s, gotKey[0], wantKey[0])
			}
			// Round-trip: unpacked canonical labels must rotate back into
			// the original orbit (same multiset of labels for a rotation).
			gotLabels := codec.UnpackLabels(gotKey, nil)
			var sumGot, sumWant uint64
			for i := 0; i < n; i++ {
				sumGot += uint64(gotLabels[i])
				sumWant += uint64(labels[s*n+i])
			}
			if sumGot != sumWant {
				t.Fatalf("state %d: canonical labels %v are not a permutation of %v", s, gotLabels, labels[s*n:(s+1)*n])
			}
		}
		// Batch canonicalize the whole block and compare against the
		// per-state canonical forms.
		canon.CanonicalizeBatch(block, count)
		for s := 0; s < count; s++ {
			single := codec.Pack(labels[s*n:(s+1)*n], cds[s*n:(s+1)*n], nil, wantKey)
			canon.Canonicalize(single)
			if block[s] != single[0] {
				t.Fatalf("state %d: block canon %x != single canon %x", s, block[s], single[0])
			}
		}
	})
}

// TestStoreIDsNonNegative pins the Store ID contract the verifier's edge
// log relies on: every exact-store ID leaves bit 31 clear. The largest
// dense key (DenseMaxBits bits) and the largest hash ID (the last local
// index in the last shard) both stay below 2^31.
func TestStoreIDsNonNegative(t *testing.T) {
	if maxDense := uint64(1)<<DenseMaxBits - 1; maxDense >= 1<<31 {
		t.Fatalf("largest dense ID %#x reaches bit 31", maxDense)
	}
	if maxHash := uint64(maxLocalID)<<shardBits | (1<<shardBits - 1); maxHash >= 1<<31 {
		t.Fatalf("largest hash ID %#x reaches bit 31", maxHash)
	}
	d := NewDense(20)
	id, _, err := d.Intern([]uint64{1<<20 - 1})
	if err != nil || id != 1<<20-1 {
		t.Fatalf("dense ID of the largest 20-bit key: %d, %v", id, err)
	}
}
