// Circuit-on-a-ring: the constructive heart of Theorem 5.4 (P/poly ⊆
// ĂOSb_log). A Boolean circuit for EQ₄ is compiled onto an odd
// bidirectional ring whose nodes share a self-stabilizing D-counter
// (Claim 5.6) as a global clock; gate values are computed in scheduled
// windows and retained by ping-ponging bits between helper-node pairs —
// memory without state.
//
// Run: go run ./examples/circuitring
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"stateless/internal/circuit"
	"stateless/internal/core"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

func main() {
	c, err := circuit.Equality(4)
	if err != nil {
		log.Fatal(err)
	}
	rp, err := circuit.CompileToRing(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: EQ₄, %d gates\n", c.Size())
	fmt.Printf("ring:    N=%d nodes (inputs + gate/memory pairs + parity pad)\n", rp.RingSize())
	fmt.Printf("clock:   D-counter modulo %d\n", rp.CounterModulus())
	fmt.Printf("labels:  %d bits (2 + 3·log D counter fields + 5 simulation bits)\n\n", rp.LabelBits())

	p := rp.Protocol()
	g := p.Graph()
	rng := rand.New(rand.NewPCG(1, 2))

	for _, bits := range []core.Input{
		{1, 0, 1, 0}, // halves equal → 1
		{1, 0, 0, 1}, // halves differ → 0
	} {
		full, err := rp.Inputs(bits)
		if err != nil {
			log.Fatal(err)
		}
		// Start from a fully corrupted labeling: every field of every edge
		// randomized, counter included. Self-stabilization must recover.
		l0 := core.RandomLabeling(g, p.Space(), rng)
		res, err := sim.Run(p, full, l0, schedule.Synchronous{N: g.N()}, sim.Options{MaxSteps: rp.SettleBound()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("input %v: ring output %d, circuit says %d (%v after %d steps)\n",
			bits, res.Outputs[0], c.Eval(bits), res.Status, res.Steps)
	}
}
