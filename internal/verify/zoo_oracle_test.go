package verify_test

import (
	"testing"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/protocols"
	"stateless/internal/verify"
)

// TestOracleZooTopologies extends the store×symmetry×workers×spill
// oracle to the generalized symmetry groups: bidirectional rings (dihedral),
// hypercubes (signed permutations, and the root-stabilizer subgroup for
// the rooted BFS protocol), and tori (translations). For every instance,
// all exact configurations must agree on verdict, state count (per
// symmetry setting), quotient group order, and witness; the quotiented
// state count must land in [full/|Γ|, full] and — the point of the PR —
// measurably below the unquotiented count. Bitstate rows are swept too:
// on stabilizing instances they must admit exactly the exact-store state
// set (the hash factor is ≫ 100 at these sizes, so no collisions), and on
// the oscillating FlipNet instances the quotient turns the oscillation
// into a section-changing self-loop that the lossy store detects on the
// fly — with the quotient OFF the same store provably cannot see it, which
// the sweep also pins.
func TestOracleZooTopologies(t *testing.T) {
	saturating := func(g *graph.Graph) *core.Protocol {
		p, err := protocols.SaturatingNet(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	flip := func(g *graph.Graph) *core.Protocol {
		p, err := protocols.FlipNet(g)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cube2 := graph.Hypercube(2)
	bfs, err := protocols.BFSSpanningTree(cube2, 3)
	if err != nil {
		t.Fatal(err)
	}
	bfsInput := make(core.Input, cube2.N())
	bfsInput[0] = 1

	for _, tc := range []struct {
		name      string
		p         *core.Protocol
		x         core.Input
		group     int // expected quotient order (Decision.Quotient)
		stores    []verify.StoreKind
		violating bool
		// bitstateDetects: the violation is a quotient self-loop, so the
		// lossy store finds it when (and only when) the quotient is on.
		bitstateDetects bool
		// minReduction: assert quotient-on states ≤ full/minReduction.
		minReduction int
	}{
		{
			name: "bidir-ring5/saturating", p: saturating(graph.BidirectionalRing(5)),
			x: make(core.Input, 5), group: 10,
			stores:       []verify.StoreKind{verify.StoreDense, verify.StoreHash},
			minReduction: 2,
		},
		{
			name: "cube3/saturating", p: saturating(graph.Hypercube(3)),
			x: make(core.Input, 8), group: 48,
			stores:       []verify.StoreKind{verify.StoreHash},
			minReduction: 2,
		},
		{
			name: "torus3x3/saturating", p: saturating(graph.Torus(3, 3)),
			x: make(core.Input, 9), group: 9,
			stores:       []verify.StoreKind{verify.StoreHash},
			minReduction: 2,
		},
		{
			// The inverter on the 4-ring has no section-changing quotient
			// self-loop (alternating labelings are fixed points; the
			// all-0/all-1 oscillation is a quotient 2-cycle), so bitstate
			// correctly reports a clean lossy sweep here — the detection
			// asymmetry the cube3/flip row witnesses from the other side.
			name: "bidir-ring4/flip", p: flip(graph.BidirectionalRing(4)),
			x: make(core.Input, 4), group: 8,
			stores:    []verify.StoreKind{verify.StoreDense, verify.StoreHash},
			violating: true,
		},
		{
			name: "cube3/flip", p: flip(graph.Hypercube(3)),
			x: make(core.Input, 8), group: 48,
			stores:    []verify.StoreKind{verify.StoreHash},
			violating: true, bitstateDetects: true,
		},
		{
			name: "cube2/bfs-rooted", p: bfs, x: bfsInput, group: 2,
			stores: []verify.StoreKind{verify.StoreDense, verify.StoreHash},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type cfg struct {
				store verify.StoreKind
				sym   verify.SymmetryMode
				work  int
				spill int64 // frontier memory budget (0 = never spill)
			}
			var cfgs []cfg
			for _, st := range tc.stores {
				for _, sy := range []verify.SymmetryMode{verify.SymmetryOff, verify.SymmetryOn} {
					// A budget that forces spilling: quotiented runs have
					// frontiers of a few dozen states, which spill only at
					// 64 B (one chunk per push); raw runs spill at 1 KiB,
					// which keeps their chunk-file count small.
					budget := int64(1024)
					if sy == verify.SymmetryOn {
						budget = 128
					}
					for _, w := range []int{1, 4} {
						for _, sp := range []int64{0, budget} {
							cfgs = append(cfgs, cfg{st, sy, w, sp})
						}
					}
				}
			}
			byState := map[verify.SymmetryMode]verify.Decision{}
			for _, c := range cfgs {
				reg := obs.NewRegistry()
				dec, err := verify.LabelRStabilizingOpts(tc.p, tc.x, 2, verify.Options{
					Limit: 1 << 22, Workers: c.work, Store: c.store, Symmetry: c.sym,
					SpillMemBytes: c.spill, SpillDir: t.TempDir(),
					Metrics: reg,
				})
				if err != nil {
					t.Fatalf("cfg %+v: %v", c, err)
				}
				// No budget never spills. With a budget, whether the frontier
				// outgrows it depends on how the workers interleave (they drain
				// it while it fills), so only the one-worker cells, whose BFS
				// order is fixed, must write chunks.
				chunks := reg.Snapshot()[explore.MetricSpillChunks].Value
				if (c.spill == 0 && chunks != 0) || (c.spill > 0 && c.work == 1 && chunks == 0) {
					t.Fatalf("cfg %+v: %d spill chunks written", c, chunks)
				}
				if dec.Stabilizing != !tc.violating {
					t.Fatalf("cfg %+v: stabilizing=%v, want %v", c, dec.Stabilizing, !tc.violating)
				}
				if !dec.Exact {
					t.Fatalf("cfg %+v: exact store produced inexact decision", c)
				}
				if (dec.Witness == nil) != dec.Stabilizing {
					t.Fatalf("cfg %+v: witness presence inconsistent with verdict", c)
				}
				wantQ := 1
				if c.sym == verify.SymmetryOn {
					wantQ = tc.group
				}
				if dec.Quotient != wantQ {
					t.Fatalf("cfg %+v: quotient %d, want %d", c, dec.Quotient, wantQ)
				}
				if prev, ok := byState[c.sym]; ok {
					if dec.States != prev.States {
						t.Fatalf("cfg %+v: state count %d vs %d across stores/workers/spill",
							c, dec.States, prev.States)
					}
					if !witnessEqual(dec.Witness, prev.Witness) {
						t.Fatalf("cfg %+v: witness differs across stores/workers/spill", c)
					}
				} else {
					byState[c.sym] = dec
				}
			}
			full := byState[verify.SymmetryOff].States
			quot := byState[verify.SymmetryOn].States
			if quot > full || quot*tc.group < full {
				t.Fatalf("quotient count %d outside [%d/%d, %d]", quot, full, tc.group, full)
			}
			if tc.minReduction > 1 && quot*tc.minReduction > full {
				t.Fatalf("quotient barely reduces: %d of %d raw states (want ≥ %dx)",
					quot, full, tc.minReduction)
			}
			t.Logf("%s: %d raw states, %d canonical (%.1fx, |Γ|=%d)",
				tc.name, full, quot, float64(full)/float64(quot), tc.group)
			if w := byState[verify.SymmetryOn].Witness; w != nil {
				m := tc.p.Graph().M()
				if len(w.Labelings[0]) != m || len(w.Labelings[1]) != m ||
					w.Labelings[0].Equal(w.Labelings[1]) {
					t.Fatalf("invalid violation witness %v / %v", w.Labelings[0], w.Labelings[1])
				}
			}

			// Bitstate rows: same sweep dimensions as the exact stores.
			for _, sy := range []verify.SymmetryMode{verify.SymmetryOff, verify.SymmetryOn} {
				for _, w := range []int{1, 4} {
					dec, err := verify.LabelRStabilizingOpts(tc.p, tc.x, 2, verify.Options{
						Limit: 1 << 22, Workers: w, Store: verify.StoreBitstate,
						Symmetry: sy, BitstateBits: 24,
					})
					if err != nil {
						t.Fatalf("bitstate sym=%v workers=%d: %v", sy, w, err)
					}
					expectViolation := tc.violating && tc.bitstateDetects && sy == verify.SymmetryOn
					if expectViolation {
						if dec.Stabilizing || dec.Witness == nil {
							t.Fatalf("bitstate sym=on workers=%d: quotient self-loop not detected", w)
						}
						continue
					}
					// No on-the-fly detection possible: a clean lossy sweep.
					if !dec.Stabilizing || dec.Exact {
						t.Fatalf("bitstate sym=%v workers=%d: got stabilizing=%v exact=%v, want clean lossy sweep",
							sy, w, dec.Stabilizing, dec.Exact)
					}
					if dec.HashFactor < 100 {
						t.Fatalf("bitstate sym=%v: hash factor %.1f too low for a trustworthy row", sy, dec.HashFactor)
					}
					// The admitted count is exactly the reachable set only at
					// workers=1: concurrent workers can both win the "I set a
					// fresh Bloom bit" race on the same key and admit it twice
					// (PR 8 pins Workers=1 in the resume test for the same
					// reason), so parallel rows get a 1% over-count allowance.
					want := byState[sy].States
					if w == 1 && dec.States != want {
						t.Fatalf("bitstate sym=%v workers=1: admitted %d states, exact store saw %d",
							sy, dec.States, want)
					}
					if dec.States < want || dec.States > want+want/100+1 {
						t.Fatalf("bitstate sym=%v workers=%d: admitted %d states, exact store saw %d",
							sy, w, dec.States, want)
					}
				}
			}
		})
	}
}
