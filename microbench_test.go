package stateless_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/des"
	"stateless/internal/enc"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

// Per-stage micro-benchmarks of the exploration hot path — step → pack →
// canonicalize → intern — so each stage's cost is visible in isolation (the
// end-to-end effect is BenchmarkVerifyStatesGraph). Step and Pack time the
// per-successor reference calls (Stepper.Step, Codec.Pack) that the
// verifier's subset DP replaces; Canonicalize and Intern compare a
// single-call with a batched variant. All stages run the E1 ring workload
// (n = 6, r = 3, |Σ| = 3, single-word 24-bit states): one state's successor
// batch is its 2^n − 1 = 63 admissible activation sets. Canonicalize and
// Intern add rows at other sizes, named after their instance.
// scripts/bench.sh records these under "micro" in BENCH_verify.json.

const microRingN = 6

// microSubsets enumerates all nonempty subsets of the n nodes — the
// activation sets of a state with no forced nodes.
func microSubsets(n int) [][]graph.NodeID {
	var sets [][]graph.NodeID
	for sub := 1; sub < 1<<n; sub++ {
		var set []graph.NodeID
		for i := 0; i < n; i++ {
			if sub&(1<<i) != 0 {
				set = append(set, graph.NodeID(i))
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// BenchmarkStep measures successor computation: Stepper.Step once per
// activation set.
func BenchmarkStep(b *testing.B) {
	p := benchRingProtocol(b, microRingN)
	g := p.Graph()
	x := make(core.Input, microRingN)
	cur := core.NewConfig(g, core.UniformLabeling(g, 1))
	subsets := microSubsets(microRingN)
	perOp := float64(len(subsets))

	b.Run("single", func(b *testing.B) {
		st := core.NewStepper(p)
		next := cur.Clone()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, set := range subsets {
				st.Step(x, cur, &next, set)
			}
		}
		b.ReportMetric(perOp*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})
}

// microRows builds count deterministic pseudo-random successor rows
// (flat labels, countdowns, outputs) for the ring codec.
func microRows(count, m, n, r int, sigma uint64) (core.Labeling, []uint8, []core.Bit) {
	labels := make(core.Labeling, count*m)
	cds := make([]uint8, count*n)
	outs := make([]core.Bit, count*n)
	s := uint64(0x9e3779b97f4a7c15)
	for i := range labels {
		s = s*6364136223846793005 + 1442695040888963407
		labels[i] = core.Label(s >> 33 % sigma)
	}
	for i := range cds {
		s = s*6364136223846793005 + 1442695040888963407
		cds[i] = uint8(s>>33%uint64(r)) + 1
		outs[i] = core.Bit(s >> 62 & 1)
	}
	return labels, cds, outs
}

// microBlock packs count flat rows (labels count×m, countdowns count×n)
// into one block of count keys back to back — the shape the verifier's
// expander hands to canonicalization and interning.
func microBlock(codec *enc.Codec, count int, labels core.Labeling, cds []uint8) []uint64 {
	m, n, w := codec.M(), codec.N(), codec.Words()
	block := make([]uint64, count*w)
	for s := 0; s < count; s++ {
		codec.Pack(labels[s*m:(s+1)*m], cds[s*n:(s+1)*n], nil, block[s*w:(s+1)*w])
	}
	return block
}

// BenchmarkPack measures state packing: Codec.Pack once per successor.
func BenchmarkPack(b *testing.B) {
	p := benchRingProtocol(b, microRingN)
	g := p.Graph()
	m, n, r := g.M(), g.N(), 3
	codec := enc.NewStateCodec(p.Space(), m, n, r, false)
	const count = 63
	labels, cds, _ := microRows(count, m, n, r, p.Space().Size())

	b.Run("single", func(b *testing.B) {
		key := make([]uint64, codec.Words())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < count; s++ {
				key = codec.Pack(labels[s*m:(s+1)*m], cds[s*n:(s+1)*n], nil, key)
			}
		}
		b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})
}

// BenchmarkCanonicalize measures symmetry canonicalization. The ring rows
// (the n rotations, one-word element scan) compare Canon.Canonicalize per
// key with one Canon.CanonicalizeBatch over the block; ring10/scan-1w
// batches perfbench verify-bitstate's 40-bit keys over the 10 rotations.
// All three read chunk tables. The zoo rows cover the other minimizer ×
// width combinations, batched: SaturatingNet on
// Clique(6) (|Γ| = 720, one-word orbit BFS), on Torus(3,3) with |Σ| = 4
// (|Γ| = 9, two-word element scan) and on Hypercube(4) (|Γ| = 384,
// two-word orbit BFS). Keys are canonical after the first pass; the
// min-search over the orbit costs the same either way, so
// re-canonicalizing measures steady-state work.
func BenchmarkCanonicalize(b *testing.B) {
	p := benchRingProtocol(b, microRingN)
	g := p.Graph()
	m, n, r := g.M(), g.N(), 3
	codec := enc.NewStateCodec(p.Space(), m, n, r, false)
	x := make(core.Input, microRingN)
	sym := explore.NewSymmetry(p, x, codec)
	if sym == nil {
		b.Fatal("ring symmetry unexpectedly inapplicable")
	}
	const count = 63
	labels, cds, _ := microRows(count, m, n, r, p.Space().Size())
	block := microBlock(codec, count, labels, cds)

	b.Run("single", func(b *testing.B) {
		canon := sym.NewCanon()
		w := codec.Words()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < count; s++ {
				canon.Canonicalize(block[s*w : (s+1)*w])
			}
		}
		b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})
	b.Run("batch", func(b *testing.B) {
		canon := sym.NewCanon()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			canon.CanonicalizeBatch(block, count)
		}
		b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})

	// perfbench verify-bitstate's keys: SaturatingRing(10,3) at r = 2, 40
	// bits with no outputs, minimized over the 10 rotations.
	rp, err := protocols.SaturatingRing(10, 3)
	if err != nil {
		b.Fatal(err)
	}
	rcodec := enc.NewStateCodec(rp.Space(), 10, 10, 2, false)
	rsym := explore.NewSymmetry(rp, make(core.Input, 10), rcodec)
	if rsym.Order() != 10 || rcodec.Bits() != 40 {
		b.Fatalf("ring10: |Γ| = %d over %d bits, want 10 over 40", rsym.Order(), rcodec.Bits())
	}
	rlabels, rcds, _ := microRows(count, 10, 10, 2, 3)
	rblock := microBlock(rcodec, count, rlabels, rcds)
	b.Run("ring10/scan-1w", func(b *testing.B) {
		canon := rsym.NewCanon()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			canon.CanonicalizeBatch(rblock, count)
		}
		b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})

	for _, tc := range []struct {
		name         string
		g            *graph.Graph
		sigma        uint64
		order, words int
	}{
		{"clique6/bfs-1w", graph.Clique(6), 2, 720, 1},
		{"torus3x3/scan-2w", graph.Torus(3, 3), 4, 9, 2},
		{"cube4/bfs-2w", graph.Hypercube(4), 2, 384, 2},
	} {
		zp, err := protocols.SaturatingNet(tc.g, tc.sigma)
		if err != nil {
			b.Fatal(err)
		}
		zm, zn := tc.g.M(), tc.g.N()
		zcodec := enc.NewStateCodec(zp.Space(), zm, zn, r, false)
		zsym := explore.NewSymmetry(zp, make(core.Input, zn), zcodec)
		if zsym.Order() != tc.order || zcodec.Words() != tc.words {
			b.Fatalf("%s: |Γ| = %d over %d words, want %d over %d",
				tc.name, zsym.Order(), zcodec.Words(), tc.order, tc.words)
		}
		// Orbit BFS costs up to |Γ| images per state, so these rows use a
		// smaller block than the ring's 63 successors.
		const zcount = 16
		zlabels, zcds, _ := microRows(zcount, zm, zn, r, tc.sigma)
		zblock := microBlock(zcodec, zcount, zlabels, zcds)
		b.Run(tc.name, func(b *testing.B) {
			canon := zsym.NewCanon()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canon.CanonicalizeBatch(zblock, zcount)
			}
			b.ReportMetric(float64(zcount)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
		})
	}
}

// BenchmarkIntern measures visited-set interning on the exact store
// backends: Store.Intern per key versus one Store.InternBatch per block,
// plus the hash store's batch path from parallel goroutines and on a store
// larger than L2, and the bitstate store's batch path. The block
// is interned once up front, so the measured path is the steady-state
// re-intern (hit) path that dominates a BFS, where most successors are
// already visited.
func BenchmarkIntern(b *testing.B) {
	p := benchRingProtocol(b, microRingN)
	g := p.Graph()
	m, n, r := g.M(), g.N(), 3
	codec := enc.NewStateCodec(p.Space(), m, n, r, false)
	const count = 63
	labels, cds, _ := microRows(count, m, n, r, p.Space().Size())
	block := microBlock(codec, count, labels, cds)

	for _, be := range []struct {
		name  string
		store func() explore.Store
	}{
		{"dense", func() explore.Store { return explore.NewDense(codec.Bits()) }},
		{"hash", func() explore.Store { return explore.NewHash(codec.Words()) }},
	} {
		store := be.store()
		ids := make([]int32, count)
		fresh := make([]bool, count)
		if err := store.InternBatch(block, ids, fresh); err != nil {
			b.Fatal(err)
		}
		b.Run(be.name+"/single", func(b *testing.B) {
			w := codec.Words()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for s := 0; s < count; s++ {
					if _, _, err := store.Intern(block[s*w : (s+1)*w]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
		})
		b.Run(be.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := store.InternBatch(block, ids, fresh); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
		})
		if be.name != "hash" {
			continue
		}
		// The batch hit path from GOMAXPROCS goroutines at once: the hash
		// store's hits take no lock and write no shared memory per key, so
		// this rate should scale with the cores rather than fall below the
		// one-goroutine batch rate. An iteration re-interns 64 blocks, so
		// that even a short run (bench.sh runs 1000 iterations) lasts long
		// enough to amortize starting the goroutines.
		const blocks = 64
		plabels, pcds, _ := microRows(blocks*count, m, n, r, p.Space().Size())
		pblock := microBlock(codec, blocks*count, plabels, pcds)
		pids := make([]int32, blocks*count)
		pfresh := make([]bool, blocks*count)
		if err := store.InternBatch(pblock, pids, pfresh); err != nil {
			b.Fatal(err)
		}
		b.Run(be.name+"/parallel", func(b *testing.B) {
			w := codec.Words()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				ids := make([]int32, count)
				fresh := make([]bool, count)
				for pb.Next() {
					for k := 0; k < blocks; k++ {
						if err := store.InternBatch(pblock[k*count*w:(k+1)*count*w], ids, fresh); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
			b.ReportMetric(float64(blocks*count)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
		})
		// The batch hit path on a store the size of perfbench verify-raw's:
		// 186,693 one-word keys in 4.1 MB of slots and key pages, more
		// than a core's L2. The rows above intern keys that sit in L1, so
		// only this row shows the slot and key-page misses that
		// InternBatch's two-phase lookup overlaps. An iteration re-interns
		// 2^18 keys drawn at random from the store, in blocks of 63.
		const storeKeys, draws = 186693, 1 << 18
		big := explore.NewHash(1)
		rng := rand.New(rand.NewPCG(18, 2))
		stored := make([]uint64, storeKeys)
		for i := range stored {
			stored[i] = rng.Uint64()
			if _, _, err := big.Intern(stored[i : i+1]); err != nil {
				b.Fatal(err)
			}
		}
		drawn := make([]uint64, draws)
		for i := range drawn {
			drawn[i] = stored[rng.IntN(storeKeys)]
		}
		b.Run(be.name+"/batch-l2", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 0; k < draws; k += count {
					n := min(count, draws-k)
					if err := big.InternBatch(drawn[k:k+n], ids[:n], fresh[:n]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(draws)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
		})
	}

	// The bitstate batch hit path at perfbench verify-bitstate's size: a
	// 2^24-bit (2 MiB) array, k = 3, holding that instance's 217,563
	// states. An iteration re-interns 2^18 keys drawn at random from the
	// stored ones, in blocks of 63; each key reads k bit words.
	const bitKeys, bitDraws = 217563, 1 << 18
	bs := explore.NewBitstate(1, 24, 3)
	rng := rand.New(rand.NewPCG(24, 3))
	bstored := make([]uint64, bitKeys)
	for i := range bstored {
		bstored[i] = rng.Uint64() >> 24 // 40-bit keys, as the instance's
		if _, _, err := bs.Intern(bstored[i : i+1]); err != nil {
			b.Fatal(err)
		}
	}
	bdrawn := make([]uint64, bitDraws)
	for i := range bdrawn {
		bdrawn[i] = bstored[rng.IntN(bitKeys)]
	}
	ids := make([]int32, count)
	fresh := make([]bool, count)
	b.Run("bitstate/batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < bitDraws; k += count {
				n := min(count, bitDraws-k)
				if err := bs.InternBatch(bdrawn[k:k+n], ids[:n], fresh[:n]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(bitDraws)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})
}

// BenchmarkDES measures the discrete-event runtime's activation
// throughput: a steady run of SaturatingRing(1<<18, 4) from a seeded random
// labeling until it stabilizes. Every node starts dirty, so about 262k
// events are pending at once. Under poisson (rate 1) about one node fires
// per tick, and a queue whose pop costs O(log n), such as one binary heap
// of every event, makes that row 2–3x slower. Under adversarial
// (AdversarialGreedy, R = 4) thousands of nodes fire per tick and every
// activation is probed with WouldChange: that row exercises the large
// simultaneous batches. Only Run is timed; New (labeling copy, initial
// dirty marking) is not. succ/s is activations per second.
func BenchmarkDES(b *testing.B) {
	p, err := protocols.SaturatingRing(1<<18, 4)
	if err != nil {
		b.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, g.N())
	l0 := core.RandomLabeling(g, p.Space(), rand.New(rand.NewPCG(1, 1)))
	for _, bc := range []struct {
		name   string
		daemon func() des.Daemon
	}{
		{"poisson/steady", func() des.Daemon { return des.NewPoisson(1, 1) }},
		{"adversarial/steady", func() des.Daemon { return des.AdversarialGreedy{R: 4} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var acts uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt, err := des.New(p, x, l0, bc.daemon(), des.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := rt.Run(context.Background(), 0)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stabilized {
					b.Fatal("steady run did not stabilize")
				}
				acts += res.Activations
			}
			b.ReportMetric(float64(acts)/b.Elapsed().Seconds(), "succ/s")
		})
	}
}

// BenchmarkGraphNew measures graph construction: graph.New on the edge list
// of a 2^18-node unidirectional ring, the graph of the DES benchmark and of
// perfbench's des-faults workload. New builds flat CSR adjacency in a fixed
// number of allocations; a layout with one slice per node and direction
// reads about 15x slower here, which the 3x micro guard catches. succ/s is
// nodes per second.
func BenchmarkGraphNew(b *testing.B) {
	const n = 1 << 18
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % n)}
	}
	b.Run("ring-2^18", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.New(n, edges); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})
}

// BenchmarkSimSync measures single-run step throughput of sim.Run, the
// frontend to the discrete-event runtime, with cycle detection on, on
// SaturatingRing(n, 4) from seeded random labelings, until each run
// label-stabilizes. The ring rows run the synchronous schedule. At n = 8 a
// run is a few microseconds, so fixed per-run costs dominate: a
// cycle-detection table sized by the labeling width (256 KiB) instead of
// the run length made this row about 15x slower. At n = 4096 the step loop
// dominates. The roundrobin-64 row runs the round-robin schedule, whose
// activations the runtime finds by generating the schedule ahead per node,
// one node per step. succ/s is schedule steps per second.
func BenchmarkSimSync(b *testing.B) {
	for _, bc := range []struct {
		name       string
		n          int
		roundRobin bool
	}{{"ring-8", 8, false}, {"ring-4096", 4096, false}, {"roundrobin-64", 64, true}} {
		p, err := protocols.SaturatingRing(bc.n, 4)
		if err != nil {
			b.Fatal(err)
		}
		g := p.Graph()
		x := make(core.Input, g.N())
		rng := rand.New(rand.NewPCG(1, 1))
		l0s := make([]core.Labeling, 16)
		for i := range l0s {
			l0s[i] = core.RandomLabeling(g, p.Space(), rng)
		}
		var sched schedule.Schedule = schedule.Synchronous{N: bc.n}
		if bc.roundRobin {
			sched = schedule.RoundRobin{N: bc.n}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			steps := 0
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(p, x, l0s[i%len(l0s)], sched, sim.Options{DetectCycles: true})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != sim.LabelStable {
					b.Fatalf("run %d: %v, want label-stable", i, res.Status)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "succ/s")
		})
	}
}
