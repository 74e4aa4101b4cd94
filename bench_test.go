package stateless_test

import (
	"testing"

	"stateless"
	"stateless/internal/core"
	"stateless/internal/counter"
	"stateless/internal/experiments"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/protocols"
	"stateless/internal/sim"
	"stateless/internal/verify"
)

// One benchmark per experiment in the evaluation (DESIGN.md §5): each
// regenerates the experiment's full row set, so `go test -bench=.` re-runs
// the entire reproduction and EXPERIMENTS.md can be refreshed from
// cmd/experiments output.

func benchExperiment(b *testing.B, run func() (experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1_CliqueStabilization(b *testing.B) {
	benchExperiment(b, experiments.E1CliqueStabilization)
}

func BenchmarkE2_TreeProtocol(b *testing.B) {
	benchExperiment(b, experiments.E2TreeProtocol)
}

func BenchmarkE3_UnidirectionalRounds(b *testing.B) {
	benchExperiment(b, experiments.E3UnidirectionalRounds)
}

func BenchmarkE4_Counters(b *testing.B) {
	benchExperiment(b, experiments.E4Counters)
}

func BenchmarkE5_BPRing(b *testing.B) {
	benchExperiment(b, experiments.E5BPRing)
}

func BenchmarkE6_CircuitRing(b *testing.B) {
	benchExperiment(b, experiments.E6CircuitRing)
}

func BenchmarkE7_CountingBound(b *testing.B) {
	benchExperiment(b, experiments.E7CountingBound)
}

func BenchmarkE8_FoolingSets(b *testing.B) {
	benchExperiment(b, experiments.E8FoolingSets)
}

func BenchmarkE9_CommHardness(b *testing.B) {
	benchExperiment(b, experiments.E9CommHardness)
}

func BenchmarkE10_MetanodeReduction(b *testing.B) {
	benchExperiment(b, experiments.E10MetanodeReduction)
}

func BenchmarkE11_BestResponse(b *testing.B) {
	benchExperiment(b, experiments.E11BestResponse)
}

// Micro-benchmarks for the engine itself.

// benchRingProtocol is the E1-style ring workload — protocols.SaturatingRing
// over Σ = {0,1,2}. Uniformity plus the all-zero input makes the rotation
// quotient applicable, so the benchmark can compare store backends and
// symmetry settings on one protocol.
func benchRingProtocol(b *testing.B, n int) *core.Protocol {
	b.Helper()
	p, err := protocols.SaturatingRing(n, 3)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkVerifyStatesGraph measures the Theorem 3.1 states-graph engine
// directly — the packed-state throughput in states/second.
//
// The clique variants run the historical E1 workload (Example 1's clique
// at the adversarial fairness r = n−1) across worker counts; the ring
// variants run the E1-style ring workload across the store backends
// (dense direct-indexed vs sharded hash vs lossy bitstate) and symmetry
// quotienting (on = all n rotations, off = raw states-graph). states/s
// counts *explored* states, so the symmetry speedup shows up in ns/op
// (same verdict from ~n× fewer states), while store speedups show up in
// states/s directly. The bitstate rows use a 2^24-bit array — hash factor
// ≫ 100 at this instance's size, so the admitted-state count (and with it
// the occ_ppm structural pin) is collision-free and deterministic.
// scripts/bench.sh turns this benchmark into BENCH_verify.json and CI
// guards it against regressions. Run with -benchmem: exploration does
// zero per-state string allocation.
func BenchmarkVerifyStatesGraph(b *testing.B) {
	p, err := protocols.Example1Clique(4)
	if err != nil {
		b.Fatal(err)
	}
	x := make(core.Input, 4)
	for _, workers := range []int{1, 4} {
		b.Run("clique/workers="+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			reportStructure(b, p, x, 3, verify.Options{Limit: 1 << 24, Workers: workers})
			states := 0
			for i := 0; i < b.N; i++ {
				dec, err := verify.LabelRStabilizingOpts(p, x, 3,
					verify.Options{Limit: 1 << 24, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				states += dec.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		})
	}

	// n = 6, r = 3: 24-bit states (2 MiB dense bitset), ~32k raw states
	// quotienting to ~5.4k canonical ones under the 6 rotations.
	const ringN = 6
	ring := benchRingProtocol(b, ringN)
	rx := make(core.Input, ringN)
	for _, cfg := range []struct {
		name  string
		store verify.StoreKind
		sym   verify.SymmetryMode
	}{
		{"ring/store=hash/sym=off", verify.StoreHash, verify.SymmetryOff},
		{"ring/store=hash/sym=on", verify.StoreHash, verify.SymmetryOn},
		{"ring/store=dense/sym=off", verify.StoreDense, verify.SymmetryOff},
		{"ring/store=dense/sym=on", verify.StoreDense, verify.SymmetryOn},
		{"ring/store=bitstate/sym=off", verify.StoreBitstate, verify.SymmetryOff},
		{"ring/store=bitstate/sym=on", verify.StoreBitstate, verify.SymmetryOn},
	} {
		opts := verify.Options{
			Limit: 1 << 24, Store: cfg.store, Symmetry: cfg.sym, BitstateBits: 24,
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			reportStructure(b, ring, rx, 3, opts)
			states := 0
			for i := 0; i < b.N; i++ {
				dec, err := verify.LabelRStabilizingOpts(ring, rx, 3, opts)
				if err != nil {
					b.Fatal(err)
				}
				states += dec.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		})
	}

	// Topology-zoo variants exercise the generalized symmetry groups:
	// the dihedral group on the bidirectional 6-ring (|Γ| = 12, dense
	// 30-bit states), the signed bit permutations on the 3-cube (|Γ| = 48)
	// and the translations on the 3×3 torus (|Γ| = 9), both hash-stored.
	// The sym=off/sym=on pairs make the quotient's explored-state reduction
	// a pinned structural fact (occ_ppm for dense; states/s denominators
	// otherwise) rather than a wall-clock claim.
	for _, zc := range []struct {
		name  string
		g     *graph.Graph
		store verify.StoreKind
		sym   verify.SymmetryMode
	}{
		{"dihedral/store=dense/sym=off", graph.BidirectionalRing(6), verify.StoreDense, verify.SymmetryOff},
		{"dihedral/store=dense/sym=on", graph.BidirectionalRing(6), verify.StoreDense, verify.SymmetryOn},
		{"cube/store=hash/sym=off", graph.Hypercube(3), verify.StoreHash, verify.SymmetryOff},
		{"cube/store=hash/sym=on", graph.Hypercube(3), verify.StoreHash, verify.SymmetryOn},
		{"torus/store=hash/sym=off", graph.Torus(3, 3), verify.StoreHash, verify.SymmetryOff},
		{"torus/store=hash/sym=on", graph.Torus(3, 3), verify.StoreHash, verify.SymmetryOn},
	} {
		zp, err := protocols.SaturatingNet(zc.g, 2)
		if err != nil {
			b.Fatal(err)
		}
		zx := make(core.Input, zc.g.N())
		opts := verify.Options{Limit: 1 << 24, Store: zc.store, Symmetry: zc.sym}
		b.Run(zc.name, func(b *testing.B) {
			b.ReportAllocs()
			reportStructure(b, zp, zx, 2, opts)
			states := 0
			for i := 0; i < b.N; i++ {
				dec, err := verify.LabelRStabilizingOpts(zp, zx, 2, opts)
				if err != nil {
					b.Fatal(err)
				}
				states += dec.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

// reportStructure runs one instrumented verdict outside the timed region
// and reports the run's machine-independent structural metrics: the mean
// successor-batch fill and the store occupancy (parts per million) at the
// verdict. scripts/bench.sh collects these into BENCH_verify.json's
// "structure" section and scripts/benchguard pins them in both directions —
// a drift means the exploration shape changed, not the machine.
func reportStructure(b *testing.B, p *core.Protocol, x core.Input, r int, opts verify.Options) {
	b.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if _, err := verify.LabelRStabilizingOpts(p, x, r, opts); err != nil {
		b.Fatal(err)
	}
	s := reg.Snapshot()
	// ResetTimer first: it excludes the instrumented run from the timed
	// region AND clears previously reported extra metrics.
	b.ResetTimer()
	if fill := s[explore.MetricBatchFill]; fill.Count > 0 {
		b.ReportMetric(float64(fill.Sum)/float64(fill.Count), "fill")
	}
	b.ReportMetric(float64(s[explore.MetricStoreOccupancyPPM].Value), "occ_ppm")
}

func BenchmarkStepSynchronousClique(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			p, err := protocols.Example1Clique(n)
			if err != nil {
				b.Fatal(err)
			}
			g := p.Graph()
			x := make(core.Input, n)
			cur := core.NewConfig(g, core.UniformLabeling(g, 0))
			next := cur.Clone()
			all := make([]graph.NodeID, n)
			for i := range all {
				all[i] = graph.NodeID(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Step(p, x, cur, &next, all)
				cur, next = next, cur
			}
		})
	}
}

func BenchmarkDCounterRound(b *testing.B) {
	for _, n := range []int{9, 33, 101} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			dc, err := counter.NewDCounter(n, 64)
			if err != nil {
				b.Fatal(err)
			}
			state := make([]counter.Fields, n)
			next := make([]counter.Fields, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					next[j] = dc.Update(j, state[(j-1+n)%n], state[(j+1)%n])
				}
				state, next = next, state
			}
		})
	}
}

func BenchmarkTreeProtocolConvergence(b *testing.B) {
	xor := func(x core.Input) core.Bit {
		var v core.Bit
		for _, bb := range x {
			v ^= bb
		}
		return v
	}
	for _, n := range []int{6, 10, 14} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			g := graph.BidirectionalRing(n)
			p, err := protocols.TreeProtocol(g, xor)
			if err != nil {
				b.Fatal(err)
			}
			x := core.InputFromUint(0xA5A5, n)
			l0 := core.UniformLabeling(g, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunSynchronous(p, x, l0, 10*n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFacadeORClique(b *testing.B) {
	g := stateless.Clique(8)
	p, err := stateless.NewUniformProtocol(g, stateless.BinarySpace(),
		func(in []stateless.Label, input stateless.Bit, out []stateless.Label) stateless.Bit {
			any := stateless.Label(input)
			for _, l := range in {
				any |= l
			}
			for i := range out {
				out[i] = any
			}
			return stateless.Bit(any)
		})
	if err != nil {
		b.Fatal(err)
	}
	x := stateless.InputFromUint(3, 8)
	l0 := stateless.UniformLabeling(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stateless.RunSynchronous(p, x, l0, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkE13_AlmostStateless(b *testing.B) {
	benchExperiment(b, experiments.E13AlmostStateless)
}

func BenchmarkE14_RandomizedSymmetryBreaking(b *testing.B) {
	benchExperiment(b, experiments.E14RandomizedSymmetryBreaking)
}

func BenchmarkE15_SymmetryZoo(b *testing.B) {
	benchExperiment(b, experiments.E15SymmetryZoo)
}
