// Command perfbench is the repository's end-to-end benchmark. It drives
// three fixed workloads through the public APIs of the verifier and of the
// discrete-event fault runtime, times each call, checks every result, and
// prints one JSON object as the last line of its standard output.
//
// Usage (from the module root of the repository):
//
//	bash perfbench/run.sh --workload verify-raw --seed 1 --seconds 30 --trace 0
//
// A run is one closed-loop batch job in one process: it sets the workload
// up several times, then repeats the timed operation until the next one
// would overrun --seconds (at least once). With --trace 0 it prints the
// end-to-end metrics, each the median over the run's operations. With
// --trace 1 it alternates untraced and traced operations (at least one
// of each), prints the per-layer metrics taken from the traced ones, and
// writes their spans and registry snapshots as JSONL under --workdir.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stateless/internal/obs"
)

// workers is the worker count of every verifier call and DES sweep: the
// benchmark machine has two cores and nothing else runs beside a job.
const workers = 2

// Set-up is repeated at least minSetups times and, while it stays cheap,
// until minSetupTime has been spent, so that setup_s is a median of many.
const (
	minSetups    = 5
	maxSetups    = 1000
	minSetupTime = 500 * time.Millisecond
)

// unit is the unit of every metric the benchmark prints.
var unit = map[string]string{
	"wall_s":      "s",
	"setup_s":     "s",
	"peak_rss_mb": "MB",

	"verify.call_s":                "s",
	"core.step_s":                  "s",
	"enc.pack_s":                   "s",
	"explore.canonicalize_s":       "s",
	"explore.expand_s":             "s",
	"explore.intern_s":             "s",
	"explore.absorb_s":             "s",
	"explore.worker_idle_s":        "s",
	"explore.probes_per_state":     "probes/state",
	"explore.store_max_probe":      "probes",
	"explore.store_occupancy_ppm":  "ppm",
	"explore.store_bytes":          "bytes",
	"explore.batch_fill":           "states/batch",
	"verify.edges":                 "count",
	"verify.sccs":                  "count",
	"verify.states":                "count",
	"verify.quotient":              "count",
	"verify.rank_s":                "s",
	"verify.csr_s":                 "s",
	"verify.scc_s":                 "s",
	"explore.spill_bytes":          "bytes",
	"explore.spill_chunks":         "count",
	"explore.frontier_mem_bytes":   "bytes",
	"explore.hash_factor":          "bits/state",
	"explore.bitstate_overadmit":   "count",
	"explore.bitstate_dropped":     "count",
	"setup.protocol_s":             "s",
	"workload.scenario_s":          "s",
	"workload.run_s":               "s",
	"des.ns_per_activation":        "ns",
	"des.reactions_per_activation": "ratio",
	"des.heap_max":                 "count",
	"des.activations":              "count",
	"des.faults":                   "count",
	"go.gc_cycles":                 "count",
	"go.total_alloc_mb":            "MB",
	"proc.cpu_s":                   "s",
	"trace.overhead_s":             "s",
}

// endToEnd lists the metrics of an untraced run; every other name in unit
// is a per-layer metric of a traced run.
var endToEnd = []string{"wall_s", "setup_s", "peak_rss_mb"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	tiny     bool
	workdir  string
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed (only des-faults draws from it)")
	seconds := fs.Float64("seconds", 10, "measurement budget of the run in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	size := fs.String("size", "full", "instance size: full | tiny (a seconds-scale smoke test)")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for spill chunks and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := jobs[c.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", c.workload, strings.Join(workloadNames(), " | "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case *size != "full" && *size != "tiny":
		fmt.Fprintf(stderr, "perfbench: --size must be full or tiny\n")
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	c.traced = *trace == 1
	c.tiny = *size == "tiny"
	c.budget = time.Duration(*seconds * float64(time.Second))

	res, err := measure(setup, c, start, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// op is one set-up or one timed operation of a run. A workload reports
// through it: the spans of its calls, the time its timed calls took, and
// per-layer values it measured itself.
type op struct {
	tr     *tracer       // nil on untraced operations
	run    int           // operation number, the spans' run id
	root   int           // span id of the operation
	reg    *obs.Registry // nil on untraced operations
	wall   time.Duration // sum of the timed calls
	layers map[string]float64
}

// call runs fn as a timed call of the operation: its time counts into
// wall and it is recorded as a child span of the operation.
func (o *op) call(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	o.wall += t1.Sub(t0)
	o.tr.add(name, o.run, o.root, t0, t1)
	return t1.Sub(t0)
}

// outcome counts the operations in the user's sense — verdicts or trials —
// that one call attempted, and how many of them failed their check.
type outcome struct{ attempted, failed int }

// runFunc performs one timed operation on a set-up instance. The error
// describes the failures counted in the outcome.
type runFunc func(o *op) (outcome, error)

// setupFunc builds one of the benchmark's workloads, timing its parts
// with o.call, and returns the operation to measure on it.
type setupFunc func(c config, o *op) (runFunc, error)

func workloadNames() []string {
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure makes one run of the workload that setup builds.
func measure(setup setupFunc, c config, start time.Time, stdout, stderr io.Writer) (result, error) {
	var tr *tracer
	if c.traced {
		tr = &tracer{t0: start}
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(c.workdir, "trace", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	dir, err := os.MkdirTemp(c.workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	c.workdir = dir // the run's scratch files

	deadline := start.Add(c.budget)
	runID := 0
	var (
		do     runFunc
		setups []float64
		layers = map[string][]float64{} // per-layer values of the set-ups and traced operations
	)
	runtime.GC()
	for spent := time.Duration(0); len(setups) < minSetups || (len(setups) < maxSetups && spent < minSetupTime); {
		runID++
		o := &op{tr: tr, run: runID, layers: map[string]float64{}}
		o.root = tr.begin("setup", runID, time.Now())
		do, err = setup(c, o)
		tr.end(o.root)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", c.workload, err)
		}
		spent += o.wall
		setups = append(setups, o.wall.Seconds())
		for k, v := range o.layers {
			layers[k] = append(layers[k], v)
		}
	}

	var (
		attempted, failed int
		walls, rsss       []float64 // untraced operations
		tracedWalls       []float64
		minOps            = 1
	)
	if c.traced {
		minOps = 2
	}
	for i := 0; ; i++ {
		t0 := time.Now()
		traced := c.traced && i%2 == 1
		runtime.GC()
		debug.FreeOSMemory() // every operation starts from a returned heap, as a fresh process would
		if err := resetPeakRSS(); err != nil {
			return result{}, err
		}
		runID++
		o := &op{run: runID, layers: map[string]float64{}}
		var before runStats
		if traced {
			o.tr, o.reg = tr, obs.NewRegistry()
			before = readRunStats()
		}
		o.root = o.tr.begin("op", runID, time.Now())
		out, err := do(o)
		o.tr.end(o.root)
		rss, rssErr := peakRSSMB()
		if rssErr != nil {
			return result{}, rssErr
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s op %d: %v\n", c.workload, i+1, err)
		}
		attempted += out.attempted
		failed += out.failed
		if traced {
			after := readRunStats()
			o.layers["go.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
			o.layers["go.total_alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
			o.layers["proc.cpu_s"] = (after.cpu - before.cpu).Seconds()
			tr.snapshot(runID, o.reg.Snapshot())
			tracedWalls = append(tracedWalls, o.wall.Seconds())
			for k, v := range o.layers {
				layers[k] = append(layers[k], v)
			}
		} else {
			walls = append(walls, o.wall.Seconds())
			rsss = append(rsss, rss)
		}
		fmt.Fprintf(stdout, "%s op %d traced=%v wall_s=%.4f peak_rss_mb=%.1f attempted=%d failed=%d\n",
			c.workload, i+1, traced, o.wall.Seconds(), rss, out.attempted, out.failed)
		if now := time.Now(); i+1 >= minOps && now.Add(now.Sub(t0)).After(deadline) {
			break
		}
	}
	if attempted == 0 {
		return result{}, errors.New("no operation attempted")
	}
	fmt.Fprintf(stdout, "%s: failed_frac=%g (%d of %d) setups=%d untraced_ops=%d traced_ops=%d\n",
		c.workload, float64(failed)/float64(attempted), failed, attempted, len(setups), len(walls), len(tracedWalls))

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit[name]} }
	if !c.traced {
		put("wall_s", median(walls))
		put("setup_s", median(setups))
		put("peak_rss_mb", median(rsss))
		return res, nil
	}
	for name := range unit {
		switch {
		case slices.Contains(endToEnd, name):
		case name == "explore.bitstate_overadmit" || name == "explore.bitstate_dropped":
			// One lost or doubly admitted state in any call is the
			// defect's evidence; a median over calls would hide it.
			put(name, slices.Max(append(layers[name], 0)))
		default:
			put(name, median(layers[name])) // 0 when the workload does not reach the layer
		}
	}
	put("trace.overhead_s", median(tracedWalls)-median(walls))
	if err := tr.write(tracePath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stderr, "perfbench: spans and snapshots written to %s\n", tracePath)
	return res, nil
}

// median returns the median of vs, 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runStats are the process counters read around a traced operation.
type runStats struct {
	gcCycles   uint32
	allocBytes uint64
	cpu        time.Duration
}

func readRunStats() runStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runStats{
		gcCycles:   ms.NumGC,
		allocBytes: ms.TotalAlloc,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// resetPeakRSS sets the process's resident-set high-water mark (VmHWM) to
// its current resident set, so that the next reading is the peak of one
// operation.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteString("5"); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
