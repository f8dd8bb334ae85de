// Command perfbench is the repository's benchmark: one process runs one
// workload against the simulator stack, checks every output against the
// digests in golden/digests.json, and prints its metrics as one JSON
// line. README.md in this directory documents the workloads, metrics
// and the layer map; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload sim-issue --seed 1 --seconds 27 --trace 0
//
// With --trace 1 the run is split in two halves: the first is
// untraced, the second records spans and a CPU profile and turns on
// the simulator's counters (the service's are on in both halves). It
// prints the per-layer metrics instead of the end-to-end ones and
// writes the spans and the profile under .bench_build/perfbench-out.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"gpujoule/internal/harness"
)

// setupRuns is how many times each run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRuns = 3

// reportScale sizes the paper report and the model validation every
// set-up performs. At this scale the Table II generators sit at their
// minimum grid and stream sizes, so all 490 distinct simulations run
// and the report takes seconds.
const reportScale = 0.005

// outDir holds traced-run artifacts; tmpDir holds the service's result
// cache. Both lie under the build directory of the checkout.
const (
	outDir = ".bench_build/perfbench-out"
	tmpDir = ".bench_build/perfbench-tmp"
)

//go:embed golden/digests.json
var goldenJSON []byte

// env is what every workload receives: the run's inputs and checks.
type env struct {
	seed   int64
	traced bool // a --trace 1 run; the service starts with counters on
	golden *golden
	tmp    string
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure runs the workload's timed loop for d. A nil tracer is an
	// untraced phase; a traced phase records spans and fills
	// phase.layers with the workload's own per-layer values.
	measure(d time.Duration, tr *tracer) (*phase, error)
	close()
}

type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

var catalog = []workload{
	{"paper-report", setupReport},
	{"sim-issue", setupSimIssue},
	{"sim-fabric", setupSimFabric},
	{"service-mixed", setupService},
}

// main runs the benchmark on one P. The workloads are sequential by
// design (one runner worker, one service client), so a second P only
// lets the garbage collector mark on the other vCPU. On a 2-vCPU host,
// a busy neighbour thread then made the collector fall behind, and a
// paper report's peak RSS rose from 27 to 33 MB. On one P, the program
// and its collector share a CPU, and a neighbour thread moved neither
// the peak nor the report time.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (paper-report, sim-issue, sim-fabric, service-mixed)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans and a CPU profile")
	record := fs.String("record", "", "rewrite the golden digests from the current program into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range catalog {
		if catalog[i].name == *name {
			w = &catalog[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload (one of paper-report, sim-issue, sim-fabric, service-mixed), --seconds > 0 and --trace 0|1")
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets the workload up setupRuns times, measures the last
// instance and assembles the result line.
//
// The set-up line: everything before the first timed operation is
// set-up — validating the energy model against the reference silicon
// (which also yields model_mae_pct) plus the workload's own preparation
// (building inputs, starting the service and priming its cache). Work
// a change moves out of the timed loop lands in setup_s.
func runWorkload(w *workload, seed int64, d time.Duration, traced bool, log io.Writer) (*result, error) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, traced: traced, golden: g, tmp: filepath.Join(tmpDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	defer os.RemoveAll(e.tmp)

	var setups []float64
	var inst instance
	var mae float64
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		m, err := validateModel()
		if err != nil {
			return nil, err
		}
		inst, err = w.setup(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		mae = m
	}
	defer inst.close()
	setupRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	maeOK := mae == g.ModelMAEPct
	if !maeOK {
		fmt.Fprintf(log, "perfbench: model_mae_pct %v differs from the recorded %v\n", mae, g.ModelMAEPct)
	}

	if !traced {
		ph, err := inst.measure(d, nil)
		if err != nil {
			return nil, err
		}
		p50, err := percentile(ph.opsMS, 50)
		if err != nil {
			return nil, err
		}
		setupS, _ := percentile(setups, 50)
		opRSS, err := nearestRank(ph.rssMB, 75)
		if err != nil {
			return nil, err
		}
		rss := max(setupRSS, opRSS)
		fmt.Fprintf(log, "perfbench: %s seed=%d ops=%d failed=%d setups=%.3f op_p50=%.2fms set-up peak RSS %.1f MB\n",
			w.name, seed, len(ph.opsMS), ph.tally.failed, setups, p50, setupRSS)
		if len(ph.opsMS) < 50 {
			fmt.Fprintf(log, "perfbench: op ms %.0f\n", ph.opsMS)
			fmt.Fprintf(log, "perfbench: op peak RSS MB %.1f\n", ph.rssMB)
		}
		for _, l := range ph.notes {
			fmt.Fprintln(log, "perfbench:", l)
		}
		return &result{
			Correct:   maeOK && ph.tally.failed == 0,
			Attempted: ph.tally.attempted,
			Failed:    ph.tally.failed,
			Metrics: map[string]metric{
				"setup_s":         {setupS, "s"},
				"max_rss_mb":      {rss, "MB"},
				"ok_frac":         {ph.tally.okFrac(), "frac"},
				"model_mae_pct":   {mae, "%"},
				"sim_minst_per_s": {ph.minstPerS, "Minst/s"},
				"op_p50_ms":       {p50, "ms"},
				"ops_per_s":       {float64(len(ph.opsMS)) / ph.wall.Seconds(), "1/s"},
			},
		}, nil
	}

	// Traced run: an untraced half for reference, then a traced half
	// under the CPU profiler.
	base, err := inst.measure(d/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ph, err := inst.measure(d-d/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(bytes.NewReader(prof.Bytes()))
	if err != nil {
		return nil, err
	}
	if err := writeArtifacts(w.name, seed, tr, prof.Bytes()); err != nil {
		return nil, err
	}
	layers, err := perLayer(base, ph, attribute(samples))
	if err != nil {
		return nil, err
	}
	layers["trace.spans"] = metric{float64(tr.len()), "count"}
	for _, l := range ph.notes {
		fmt.Fprintln(log, "perfbench:", l)
	}
	tl := base.tally
	tl.add(ph.tally)
	return &result{
		Correct:   maeOK && tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   layers,
	}, nil
}

// validateModel runs the §IV validation (GPUJoule calibrated on the
// reference silicon, Fig. 4b applications) and returns its MAE.
func validateModel() (float64, error) {
	h := harness.NewWithOptions(harness.Options{Scale: reportScale, Workers: 1})
	v, err := h.Validate()
	if err != nil {
		return 0, fmt.Errorf("model validation: %w", err)
	}
	return v.Fig4bMAEPct(), nil
}

// resetPeakRSS starts a new peak-RSS measurement: it resets the
// process's VmHWM to its current resident set (Linux clear_refs "5").
// Without the reset, a run's peak is the largest of its operations',
// and that is decided by whether a background GC cycle happened to mark
// while a large simulation was live: the peak heap of one paper report
// moves between 15 and 21 MB with it. The heap is left as the previous
// operation left it, as in a process that keeps running.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("peak RSS reset: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("peak RSS reset: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set since the last
// resetPeakRSS (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// phase is one measured window of a workload.
type phase struct {
	opsMS     []float64     // latency of each completed operation
	wall      time.Duration // time in operations: summed when sequential, the window on service-mixed
	minstPerS float64       // simulated warp-instructions per host second / 1e6
	rssMB     []float64     // peak RSS of each operation, or of the whole window on service-mixed
	tally     tally
	allocMB   float64 // heap allocated during the window
	// layers holds the workload's per-layer values (traced phases); the
	// per-layer names every workload emits are listed in layerNames.
	layers map[string]float64
	notes  []string // human-readable detail for standard error
}

// layerNames are the per-layer metrics every traced run prints, with
// their units. A name a workload does not fill reads 0 (README.md lists
// which workload fills which).
var layerNames = map[string]string{
	"sim.ns_per_warp_inst":           "ns",
	"sim.readyqueue_share":           "frac",
	"sim.issue_share":                "frac",
	"sim.rest_share":                 "frac",
	"sim.warp_insts":                 "count",
	"sim.cycles":                     "count",
	"memsys.bw_share":                "frac",
	"memsys.cache_share":             "frac",
	"memsys.pagetable_share":         "frac",
	"memsys.rest_share":              "frac",
	"memsys.l1_hit_ratio":            "frac",
	"memsys.l2_hit_ratio":            "frac",
	"interconnect.share":             "frac",
	"interconnect.remote_fill_ratio": "frac",
	"interconnect.link_bytes":        "count",
	"interconnect.link_queue_cycles": "count",
	"core.share":                     "frac",
	"runner.share":                   "frac",
	"runner.points":                  "count",
	"runner.simulated":               "count",
	"runner.memo_hit_ratio":          "frac",
	"runner.overhead_share":          "frac",
	"harness.share":                  "frac",
	"silicon.share":                  "frac",
	"calib.share":                    "frac",
	"resultcache.share":              "frac",
	"resultcache.hits":               "count",
	"resultcache.misses":             "count",
	"resultcache.writes":             "count",
	"resultcache.hit_ratio":          "frac",
	"service.share":                  "frac",
	"service.http_json_share":        "frac",
	"service.submit_share":           "frac",
	"service.queue_wait_share":       "frac",
	"service.first_event_share":      "frac",
	"service.stream_share":           "frac",
	"service.result_share":           "frac",
	"service.miss_hit_p50_ratio":     "x",
	"service.hit_tail_ratio":         "x",
	"service.miss_tail_ratio":        "x",
	"service.retries_429":            "count",
	"service.coalesced":              "count",
	"runtime.gc_share":               "frac",
	"runtime.alloc_mb_per_op":        "MB",
	"other.share":                    "frac",
	"trace.overhead_frac":            "frac",
	"trace.spans":                    "count",
}

func init() {
	for _, exp := range reportExperiments {
		layerNames["harness."+exp+"_share"] = "frac"
	}
}

// perLayer assembles the traced run's per-layer metrics: the profile
// shares, the workload's own values, and what the two halves give.
func perLayer(base, traced *phase, shares map[string]float64) (map[string]metric, error) {
	vals := map[string]float64{}
	for k, v := range shares {
		vals[k] = v
	}
	for k, v := range traced.layers {
		if _, dup := vals[k]; dup {
			return nil, fmt.Errorf("per-layer metric %s set twice", k)
		}
		vals[k] = v
	}
	b50, err := percentile(base.opsMS, 50)
	if err != nil {
		return nil, err
	}
	t50, err := percentile(traced.opsMS, 50)
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_frac"] = t50/b50 - 1
	vals["runtime.alloc_mb_per_op"] = traced.allocMB / float64(len(traced.opsMS))
	out := make(map[string]metric, len(layerNames))
	for k, v := range vals {
		unit, ok := layerNames[k]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s is not declared", k)
		}
		out[k] = metric{v, unit}
	}
	for k, unit := range layerNames {
		if _, ok := out[k]; !ok {
			out[k] = metric{0, unit}
		}
	}
	return out, nil
}

// writeArtifacts stores the traced run's spans and CPU profile.
func writeArtifacts(name string, seed int64, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(stem+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(stem + ".spans.json")
	if err != nil {
		return err
	}
	if err := tr.write(f, name, seed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocatedMB reads the cumulative heap allocation, in MB.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// seqLoop runs op back to back for about d and times each call. op
// returns the warp-instructions it simulated. Every call's error, digest
// mismatches included, is tallied as a failed operation. A new call
// starts only while at least half the previous call's duration is left,
// so the loop ends close to d. Each call's peak RSS is taken outside
// its time.
func seqLoop(d time.Duration, op func() (uint64, error)) (*phase, error) {
	ph := &phase{}
	a0 := allocatedMB()
	var insts uint64
	var last time.Duration
	start := time.Now()
	for left := d; left > 0 && left >= last/2; left = d - time.Since(start) {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		n, err := op()
		last = time.Since(t0)
		rss, rerr := peakRSSMB()
		if rerr != nil {
			return nil, rerr
		}
		ph.rssMB = append(ph.rssMB, rss)
		ph.wall += last
		ph.opsMS = append(ph.opsMS, float64(last.Nanoseconds())/1e6)
		ph.tally.record(err)
		insts += n
	}
	ph.allocMB = allocatedMB() - a0
	// Every operation of a sequential workload simulates the same
	// instructions, so the median latency gives the median rate.
	if p50, err := percentile(ph.opsMS, 50); err == nil {
		ph.minstPerS = float64(insts) / float64(len(ph.opsMS)) / (p50 / 1e3) / 1e6
	}
	return ph, nil
}

var errMismatch = errors.New("output differs from the recorded digest")
