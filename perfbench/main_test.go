package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// declared reads the metrics BENCHMARK.json declares, by section.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	return endToEnd, perLayer
}

// reached lists, per workload, the per-layer metrics its tiny traced run
// must report as nonzero: the layers the workload exists to exercise.
var reached = map[string][]string{
	"verify-raw": {"verify.call_s", "core.step_s", "enc.pack_s", "explore.expand_s", "explore.intern_s",
		"explore.absorb_s", "explore.probes_per_state", "explore.store_occupancy_ppm", "explore.store_bytes",
		"explore.batch_fill", "verify.edges", "verify.sccs", "verify.states", "verify.quotient",
		"verify.rank_s", "verify.csr_s", "verify.scc_s", "setup.protocol_s", "go.total_alloc_mb", "proc.cpu_s"},
	"verify-bitstate": {"verify.call_s", "explore.canonicalize_s", "explore.intern_s", "explore.spill_bytes",
		"explore.spill_chunks", "explore.hash_factor", "verify.states", "verify.quotient", "setup.protocol_s"},
	"des-faults": {"setup.protocol_s", "workload.scenario_s", "workload.run_s", "des.ns_per_activation",
		"des.reactions_per_activation", "des.heap_max", "des.activations", "des.faults", "go.total_alloc_mb"},
}

// TestTinyRuns runs every workload at its tiny size, untraced and traced,
// and checks that the run passes its output checks and prints exactly the
// declared metrics with their declared units.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", name, "--size", "tiny", "--seconds", "0.2",
				"--trace", []string{"0", "1"}[trace], "--workdir", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			for m, u := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != u {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, trace, m, got, u)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", name, trace, len(res.Metrics), len(want))
			}
			mustReach := slices.Collect(maps.Keys(endToEnd))
			if trace == 1 {
				mustReach = reached[name]
			}
			for _, m := range mustReach {
				if v := res.Metrics[m].Value; v <= 0 {
					t.Errorf("%s trace=%d: metric %s = %v, want > 0", name, trace, m, v)
				}
			}
		}
	}
}
