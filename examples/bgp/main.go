// BGP interdomain routing as stateless computation (§1.1 of the paper):
// route selection maps the most recent neighbor announcements to a choice,
// with no other state. This example runs the three classic Stable Paths
// Problem gadgets and shows the paper's §3 dichotomy in action:
//
//   - GOOD GADGET: unique stable routing tree → converges under every
//     schedule we throw at it;
//   - DISAGREE: two stable trees → Theorem 3.1 says no convergence
//     guarantee under (n−1)-fair schedules; synchronous activation flaps
//     forever while round-robin converges;
//   - BAD GADGET: no stable tree → diverges under everything.
//
// Run: go run ./examples/bgp
package main

import (
	"fmt"
	"log"

	"stateless"
	"stateless/internal/bestresponse"
	"stateless/internal/core"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

func main() {
	gadgets := []struct {
		name string
		spp  *bestresponse.SPP
	}{
		{"GOOD GADGET", bestresponse.GoodGadget()},
		{"DISAGREE", bestresponse.Disagree()},
		{"BAD GADGET", bestresponse.BadGadget()},
	}
	for _, gd := range gadgets {
		stable, err := gd.spp.StableAssignments()
		if err != nil {
			log.Fatal(err)
		}
		p, err := gd.spp.Protocol()
		if err != nil {
			log.Fatal(err)
		}
		n := gd.spp.N
		x := make(core.Input, n)
		empty := core.UniformLabeling(p.Graph(), 0)

		syncRes, err := sim.RunSynchronous(p, x, empty, 10000)
		if err != nil {
			log.Fatal(err)
		}
		rrRes, err := sim.Run(p, x, empty, schedule.RoundRobin{N: n},
			sim.Options{MaxSteps: 10000, DetectCycles: true})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-12s stable routing trees: %d\n", gd.name, len(stable))
		for i, a := range stable {
			fmt.Printf("             tree %d: %v\n", i+1, a[1:])
		}
		fmt.Printf("             synchronous:  %v", syncRes.Status)
		if syncRes.CycleLen > 0 && !stateless.IsStable(p, x, syncRes.Final.Labels) {
			fmt.Printf(" (routes flap with period %d)", syncRes.CycleLen)
		}
		fmt.Println()
		fmt.Printf("             round-robin:  %v\n\n", rrRes.Status)
	}
	fmt.Println("Theorem 3.1 in one line: two stable routing trees (DISAGREE) already")
	fmt.Println("doom every (n-1)-fair convergence guarantee — BGP route flapping is")
	fmt.Println("not an implementation bug but a property of stateless best response.")
}
