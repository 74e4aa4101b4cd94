package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/simulate.golden")

// goldenRuns are the single runs and -trials sweeps pinned by
// TestSimulateGolden: every schedule kind the CLI offers (sync, roundrobin,
// rfair, adversarial), on label-stable, output-stable, oscillating and
// exhausted instances.
var goldenRuns = [][]string{
	{"-protocol", "example1", "-n", "5"},
	{"-protocol", "tree-xor", "-n", "6", "-input", "101101"},
	{"-protocol", "slow-ring", "-n", "5", "-q", "3", "-random-init", "-seed", "4"},
	{"-protocol", "saturating-ring", "-n", "16", "-q", "4", "-random-init"},
	{"-protocol", "dcounter", "-n", "5", "-d", "8", "-steps", "2000"},
	{"-protocol", "bgp-disagree", "-random-init"},
	{"-protocol", "bgp-bad", "-steps", "1000"},
	{"-protocol", "tree-maj", "-n", "5", "-input", "11100", "-sched", "roundrobin"},
	{"-protocol", "example1", "-n", "4", "-random-init", "-seed", "3", "-sched", "roundrobin"},
	{"-protocol", "bgp-disagree", "-sched", "roundrobin"},
	{"-protocol", "bgp-good", "-sched", "roundrobin"},
	{"-protocol", "saturating-ring", "-n", "12", "-q", "3", "-random-init", "-sched", "roundrobin"},
	{"-protocol", "bgp-bad", "-sched", "roundrobin", "-steps", "1000"},
	{"-protocol", "dcounter", "-n", "3", "-d", "4", "-sched", "roundrobin", "-steps", "3000"},
	{"-protocol", "bgp-good", "-sched", "rfair", "-steps", "2000"},
	{"-protocol", "example1", "-n", "5", "-r", "3", "-random-init", "-seed", "3", "-sched", "rfair"},
	{"-protocol", "tree-xor", "-n", "5", "-input", "10110", "-sched", "rfair", "-seed", "9"},
	{"-protocol", "bgp-bad", "-sched", "rfair", "-steps", "500"},
	{"-protocol", "example1", "-n", "5", "-sched", "adversarial"},
	{"-protocol", "example1", "-n", "4", "-sched", "adversarial", "-steps", "3"},
	{"-protocol", "example1", "-n", "6", "-trials", "8", "-workers", "2"},
	{"-protocol", "slow-ring", "-n", "4", "-q", "3", "-trials", "6", "-workers", "2", "-seed", "5"},
	{"-protocol", "dcounter", "-n", "5", "-d", "8", "-steps", "2000", "-trials", "4", "-workers", "2"},
	{"-protocol", "bgp-bad", "-steps", "1000", "-trials", "6", "-workers", "2", "-sched", "roundrobin"},
	{"-protocol", "tree-xor", "-n", "5", "-input", "10110", "-trials", "6", "-workers", "2", "-sched", "roundrobin"},
	{"-protocol", "bgp-disagree", "-trials", "6", "-workers", "2", "-sched", "roundrobin"},
	{"-protocol", "bgp-good", "-sched", "rfair", "-steps", "2000", "-trials", "6", "-workers", "2"},
	{"-protocol", "example1", "-n", "5", "-r", "2", "-sched", "rfair", "-trials", "6", "-workers", "2", "-steps", "3000"},
	{"-protocol", "example1", "-n", "5", "-sched", "adversarial", "-trials", "6", "-workers", "2"},
}

// TestSimulateGolden pins the CLI's output for goldenRuns byte for byte, so
// a change to the engine under sim.Run that should leave every verdict,
// step count and output alone is checked against a recorded baseline.
// Intended changes are reviewed by regenerating with -update.
func TestSimulateGolden(t *testing.T) {
	var all bytes.Buffer
	for _, args := range goldenRuns {
		all.WriteString("$ simulate " + strings.Join(args, " ") + "\n")
		if err := run(args, &all); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	golden := filepath.Join("testdata", "simulate.golden")
	if *update {
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/simulate -run TestSimulateGolden -update)", err)
	}
	if got := all.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("simulate output deviates from golden file (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s", got, want)
	}
}
