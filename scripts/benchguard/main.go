// Command benchguard compares a freshly measured BENCH_verify.json (see
// scripts/bench.sh) against the checked-in baseline and exits nonzero when
// any metric regressed by more than the allowed factor. Four sections are
// guarded:
//
//   - configs: unique-states/s per states-graph configuration (higher is
//     better, ratio = baseline/current);
//   - ms_per_verdict: wall milliseconds per full verdict per configuration
//     (lower is better, ratio = current/baseline);
//   - structure: mean successor-batch fill and store occupancy (ppm) at
//     the verdict per configuration (from internal/obs instrumentation).
//     These are machine-independent, so they are pinned tightly in BOTH
//     directions — any drift means the exploration itself changed, which
//     must be a deliberate, baseline-regenerating change;
//   - micro: succ/s per per-stage micro-benchmark (higher is better,
//     guarded at a looser factor — single-stage numbers are noisier than
//     end-to-end ones). A row listed in microBounds is guarded at its own
//     factor instead, when the regression it exists to catch is smaller
//     than the general micro factor.
//
// A section missing from the baseline is skipped, so old baseline files
// (configs only) keep working; a section present in the baseline but
// missing from the current run fails.
//
// CI's bench-sanity job runs it on every push; the generous default factor
// absorbs runner-speed variance while still catching algorithmic
// regressions (a lost store fast path or a broken quotient shows up as
// 5-10x, not 1.5x).
//
// Usage:
//
//	go run ./scripts/benchguard -baseline BENCH_verify.json -current /tmp/BENCH_current.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type benchFile struct {
	Benchmark    string             `json:"benchmark"`
	Metric       string             `json:"metric"`
	Configs      map[string]float64 `json:"configs"`
	MsPerVerdict map[string]float64 `json:"ms_per_verdict"`
	Structure    map[string]float64 `json:"structure"`
	Micro        map[string]float64 `json:"micro"`
}

// microBounds overrides the -micro-regress factor for single rows.
// DES/poisson/steady times whole ~0.1 s DES runs (median of three), and
// the event queue is only part of an activation's cost: a return from the
// timing wheel to the O(log n) binary heap read 2.1–2.7x below the
// recorded rate in five runs, which the general 3x micro factor would let
// through.
var microBounds = map[string]float64{
	"DES/poisson/steady": 1.5,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		baselinePath = fs.String("baseline", "BENCH_verify.json", "checked-in baseline JSON")
		currentPath  = fs.String("current", "", "freshly measured JSON")
		maxRegress   = fs.Float64("max-regress", 2.0, "fail when an end-to-end metric regresses by this factor")
		microRegress = fs.Float64("micro-regress", 3.0, "fail when a micro-benchmark regresses by this factor")
		structDrift  = fs.Float64("structure-drift", 1.2, "fail when a structural metric drifts by this factor in either direction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *currentPath == "" {
		return fmt.Errorf("-current is required")
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		return err
	}
	current, err := load(*currentPath)
	if err != nil {
		return err
	}
	var failures []string
	check := func(section string, base, cur map[string]float64, lowerBetter bool, factor float64, bounds map[string]float64) {
		if len(base) == 0 {
			return
		}
		names := make([]string, 0, len(base))
		for name := range base {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b := base[name]
			c, ok := cur[name]
			if !ok {
				fmt.Fprintf(stdout, "FAIL %-16s %-28s missing from current run\n", section, name)
				failures = append(failures, section)
				continue
			}
			ratio := b / c
			if lowerBetter {
				ratio = c / b
			}
			bound := factor
			if f, ok := bounds[name]; ok {
				bound = f
			}
			status := "ok  "
			if c <= 0 || ratio > bound {
				status = "FAIL"
				failures = append(failures, section)
			}
			fmt.Fprintf(stdout, "%s %-16s %-28s baseline %14.3f  current %14.3f  ratio %.2fx\n",
				status, section, name, b, c, ratio)
		}
	}
	// Structural metrics are not a speed race: the check is symmetric, and
	// an "improvement" fails too — batch fill or occupancy moving at all
	// means the exploration explored differently than the baseline.
	checkDrift := func(section string, base, cur map[string]float64, factor float64) {
		if len(base) == 0 {
			return
		}
		names := make([]string, 0, len(base))
		for name := range base {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b := base[name]
			c, ok := cur[name]
			if !ok {
				fmt.Fprintf(stdout, "FAIL %-16s %-28s missing from current run\n", section, name)
				failures = append(failures, section)
				continue
			}
			ratio := c / b
			if ratio < 1 && ratio > 0 {
				ratio = 1 / ratio
			}
			status := "ok  "
			if b <= 0 || c <= 0 || ratio > factor {
				status = "FAIL"
				failures = append(failures, section)
			}
			fmt.Fprintf(stdout, "%s %-16s %-28s baseline %14.3f  current %14.3f  drift %.2fx\n",
				status, section, name, b, c, ratio)
		}
	}
	check("states/s", baseline.Configs, current.Configs, false, *maxRegress, nil)
	check("ms/verdict", baseline.MsPerVerdict, current.MsPerVerdict, true, *maxRegress, nil)
	checkDrift("structure", baseline.Structure, current.Structure, *structDrift)
	check("micro succ/s", baseline.Micro, current.Micro, false, *microRegress, microBounds)
	if len(failures) > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond the allowed factor", len(failures))
	}
	return nil
}

func load(path string) (benchFile, error) {
	var b benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Configs) == 0 {
		return b, fmt.Errorf("%s: no configs", path)
	}
	return b, nil
}
