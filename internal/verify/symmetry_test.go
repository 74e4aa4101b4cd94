package verify_test

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/verify"
)

// uniformRingProtocol tabulates one random reaction table shared by every
// node of the unidirectional m-ring (in/out degree 1): a node maps its
// single incoming label (and input bit) to one outgoing label and an
// output bit. Uniformity is what makes the rotation quotient applicable.
func uniformRingProtocol(t *testing.T, m int, sigma uint64, seed uint64) *core.Protocol {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xa0))
	rows := 2 * sigma
	outLabel := make([]core.Label, rows)
	outBit := make([]core.Bit, rows)
	for r := range outLabel {
		outLabel[r] = core.Label(rng.Uint64N(sigma))
		outBit[r] = core.Bit(rng.IntN(2))
	}
	p, err := core.NewUniformProtocol(graph.Ring(m), core.MustLabelSpace(sigma),
		func(in []core.Label, input core.Bit, out []core.Label) core.Bit {
			idx := uint64(in[0])*2 + uint64(input)
			out[0] = outLabel[idx]
			return outBit[idx]
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOracleStoreSymmetryWorkers is the cross-check oracle of the unified
// engine: on small unidirectional rings (|Σ| ∈ {2,3}, m ∈ 3..6, where the
// rotation group has order m), every (store, symmetry, workers)
// combination must return the same verdict; state counts must agree across
// stores and worker counts for a fixed symmetry setting; the quotient count
// must sit in [states/|Γ|, states]; and witnesses must be identical across
// all non-symmetry dimensions and genuinely violating in all settings.
func TestOracleStoreSymmetryWorkers(t *testing.T) {
	type cfg struct {
		store verify.StoreKind
		sym   verify.SymmetryMode
		work  int
	}
	var cfgs []cfg
	for _, st := range []verify.StoreKind{verify.StoreDense, verify.StoreHash} {
		for _, sy := range []verify.SymmetryMode{verify.SymmetryOff, verify.SymmetryOn} {
			for _, w := range []int{1, 4} {
				cfgs = append(cfgs, cfg{st, sy, w})
			}
		}
	}
	for _, sigma := range []uint64{2, 3} {
		for m := 3; m <= 6; m++ {
			seeds := uint64(4)
			if m >= 5 && sigma == 3 {
				// The largest rings dominate the runtime (≈3^{2m} states);
				// fewer seeds keep the matrix covered under -race.
				seeds = 2
			}
			if testing.Short() && m >= 5 {
				continue
			}
			for seed := uint64(0); seed < seeds; seed++ {
				p := uniformRingProtocol(t, m, sigma, seed+uint64(m)*17+uint64(sigma)*131)
				x := make(core.Input, m)
				for _, output := range []bool{false, true} {
					decide := verify.LabelRStabilizingOpts
					if output {
						decide = verify.OutputRStabilizingOpts
					}
					decs := make([]verify.Decision, len(cfgs))
					for i, c := range cfgs {
						dec, err := decide(p, x, 2, verify.Options{
							Limit: 1 << 22, Workers: c.work, Store: c.store, Symmetry: c.sym,
						})
						if err != nil {
							t.Fatalf("Σ=%d m=%d seed=%d output=%v cfg=%+v: %v", sigma, m, seed, output, c, err)
						}
						decs[i] = dec
					}
					ref := decs[0]
					for i, dec := range decs {
						c := cfgs[i]
						if dec.Stabilizing != ref.Stabilizing {
							t.Fatalf("Σ=%d m=%d seed=%d output=%v: verdict differs at %+v: %v vs %v",
								sigma, m, seed, output, c, dec.Stabilizing, ref.Stabilizing)
						}
						if (dec.Witness == nil) != dec.Stabilizing {
							t.Fatalf("Σ=%d m=%d seed=%d output=%v %+v: witness presence inconsistent", sigma, m, seed, output, c)
						}
						if c.sym == verify.SymmetryOn && dec.Quotient != m {
							t.Fatalf("Σ=%d m=%d seed=%d %+v: quotient %d, want group order %d", sigma, m, seed, c, dec.Quotient, m)
						}
					}
					// Group by symmetry setting: states and witnesses must
					// agree within each group.
					byState := map[verify.SymmetryMode]verify.Decision{}
					for i, dec := range decs {
						c := cfgs[i]
						prev, ok := byState[c.sym]
						if !ok {
							byState[c.sym] = dec
							continue
						}
						if dec.States != prev.States {
							t.Fatalf("Σ=%d m=%d seed=%d output=%v sym=%v: state count %d vs %d across stores/workers",
								sigma, m, seed, output, c.sym, dec.States, prev.States)
						}
						if !witnessEqual(dec.Witness, prev.Witness) {
							t.Fatalf("Σ=%d m=%d seed=%d output=%v sym=%v: witness differs across stores/workers",
								sigma, m, seed, output, c.sym)
						}
					}
					full := byState[verify.SymmetryOff].States
					quot := byState[verify.SymmetryOn].States
					if quot > full || quot*m < full {
						t.Fatalf("Σ=%d m=%d seed=%d output=%v: quotient count %d outside [%d/%d, %d]",
							sigma, m, seed, output, quot, full, m, full)
					}
					// Witness validity: the two sections must differ and be
					// in range.
					for sy, dec := range byState {
						if dec.Witness == nil {
							continue
						}
						if output {
							a, b := dec.Witness.Outputs[0], dec.Witness.Outputs[1]
							if len(a) != m || len(b) != m || bitsEq(a, b) {
								t.Fatalf("Σ=%d m=%d seed=%d sym=%v: invalid output witness %v/%v", sigma, m, seed, sy, a, b)
							}
						} else {
							a, b := dec.Witness.Labelings[0], dec.Witness.Labelings[1]
							if len(a) != m || len(b) != m || a.Equal(b) {
								t.Fatalf("Σ=%d m=%d seed=%d sym=%v: invalid label witness %v/%v", sigma, m, seed, sy, a, b)
							}
							for _, l := range append(a.Clone(), b...) {
								if !p.Space().Contains(l) {
									t.Fatalf("Σ=%d m=%d seed=%d sym=%v: witness label %d outside Σ", sigma, m, seed, sy, l)
								}
							}
						}
					}
				}
			}
		}
	}
}

func witnessEqual(a, b *verify.Witness) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for k := 0; k < 2; k++ {
		if !a.Labelings[k].Equal(b.Labelings[k]) || !bitsEq(a.Outputs[k], b.Outputs[k]) {
			return false
		}
	}
	return true
}
