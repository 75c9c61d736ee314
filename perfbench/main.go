// Command perfbench is the repository's benchmark of record. It runs one
// named workload for a fixed measuring time and prints, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// the program's instrumentation off. With -trace 1 they are the
// per-layer metrics of one extra traced pass, plus the tracing overhead
// against the untraced passes of the same run. See README.md.
//
// Run it from the repository root through run.sh, which builds it and
// cmd/gridnode from source:
//
//	bash perfbench/run.sh -workload sim-fig2 -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_wall_s", "s"},
	{"sim_wait_mean_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// layerTags are the protocol layers of simnet.LayerOf that the
// per-layer table breaks events, switches and RPCs down by.
var layerTags = []string{"chord", "rntree", "grid", "heartbeat", "replica", "pubsub", "gossip", "client"}

// perLayer lists the metrics every traced run reports, in
// BENCHMARK.json order. A metric naming work a workload does not do
// reads 0 there (nettransport.* on sim-*, sim.* on live-*).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_fired", "count"},
		{"sim.spawns", "count"},
		{"sim.switches", "count"},
		{"sim.switches_per_event", "ratio"},
		{"sim.ns_per_event", "ns"},
		{"sim.peak_procs", "count"},
		{"sim.peak_heap", "count"},
		{"process.alloc_bytes_per_event", "B"},
		{"process.gc_cpu_frac", "ratio"},
		{"process.heap_live_mb_end", "MB"},
		{"simnet.messages", "count"},
		{"simnet.faulted", "count"},
	}
	for _, tag := range layerTags {
		defs = append(defs,
			metricDef{"layer." + tag + ".events", "count"},
			metricDef{"layer." + tag + ".switches", "count"},
			metricDef{"layer." + tag + ".wall_s", "s"},
			metricDef{"layer." + tag + ".calls_per_job", "count"},
			metricDef{"layer." + tag + ".client_p50_ms", "ms"},
			metricDef{"layer." + tag + ".server_p50_ms", "ms"},
		)
	}
	defs = append(defs,
		metricDef{"match.msgs_per_match", "count"},
		metricDef{"match.visits_per_match", "count"},
		metricDef{"grid.match_failed", "count"},
		metricDef{"grid.resubmits", "count"},
		metricDef{"grid.promotions", "count"},
		metricDef{"grid.checkpoints", "count"},
		metricDef{"grid.wasted_work_s", "s"},
		metricDef{"grid.status_rpcs", "count"},
	)
	for _, st := range stages {
		defs = append(defs,
			metricDef{"grid.stage." + st.name + "_ms.p50", "ms"},
			metricDef{"grid.stage." + st.name + "_ms.p99", "ms"},
		)
	}
	return append(defs,
		metricDef{"nettransport.bytes_per_job", "B"},
		metricDef{"nettransport.calls_per_job", "count"},
		metricDef{"nettransport.overhead_ms", "ms"},
		metricDef{"gridnode.cpu_ms_per_job", "ms"},
		metricDef{"gridnode.converge_s", "s"},
		metricDef{"client.inject_p50_ms", "ms"},
		metricDef{"client.gen_late_p99_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gridnode string // path of the built cmd/gridnode binary
	workdir  string // scratch directory inside the checkout
}

// outcome is what one workload run measured.
type outcome struct {
	attempted int      // jobs submitted
	failed    int      // jobs not delivered exactly once
	problems  []string // correctness failures: each one fails the run
	// values holds every metric the run computed, end-to-end and
	// per-layer; samples holds the per-pass values behind each
	// end-to-end metric, for the spread in the result record.
	values  map[string]float64
	samples map[string][]float64
	passes  int
	digests []string
	// stealFrac is the share of CPU time the host took from this
	// machine's CPUs during the run (steal time), a noise indicator.
	stealFrac float64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string][]float64{}}
}

// fail records a correctness failure.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"sim-fig2":    func(cfg config) (*outcome, error) { return runSim(cfg, simFig2) },
	"sim-churn":   func(cfg config) (*outcome, error) { return runSim(cfg, simChurn) },
	"live-stream": runLiveStream,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := runChild(os.Args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sim-fig2, sim-churn or live-stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report the per-layer metrics of a traced pass")
	flag.StringVar(&cfg.gridnode, "gridnode", "", "path of the cmd/gridnode binary (live workloads)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for logs, job sandboxes and result records")
	flag.Parse()
	cfg.trace = traceFlag != 0

	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (sim-fig2, sim-churn, live-stream)\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	began := time.Now()
	steal0 := stealTicks()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	out.stealFrac = (stealTicks() - steal0) / (100 * float64(runtime.NumCPU()) * time.Since(began).Seconds())
	if !report(cfg, out, time.Since(began)) {
		os.Exit(1)
	}
}

// runChild runs one simulation pass in this process, as runSimPass
// starts it: -child <workload> -seed <n> -trace <0|1>.
func runChild(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("child", "", "sim workload")
	seed := fs.Int64("seed", 0, "pass seed")
	trace := fs.Int("trace", 0, "1 = traced pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return simChild(*name, *seed, *trace != 0)
}

// report writes the result record, prints the human summary to stderr
// and the result object as the last line of stdout. It reports whether
// the run was correct.
func report(cfg config, out *outcome, took time.Duration) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			out.fail("metric %s was not measured", d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.fail("metric %s is %v", d.Name, v)
			v = 0
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	correct := len(out.problems) == 0

	spreads := map[string]float64{}
	for name, xs := range out.samples {
		spreads[name] = spread(xs)
	}
	record := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"passes":      out.passes,
		"took_s":      took.Seconds(),
		"steal_frac":  out.stealFrac,
		"env":         environment(),
		"correct":     correct,
		"problems":    out.problems,
		"attempted":   out.attempted,
		"failed":      out.failed,
		"failed_frac": perJob(float64(out.failed), out.attempted),
		"digests":     out.digests,
		"metrics":     out.values,
		"samples":     out.samples,
		"spread":      spreads,
	}
	if err := writeRecord(cfg, record); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result record: %v\n", err)
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d passes=%d attempted=%d failed=%d failed_frac=%g correct=%v (%.1fs, steal %.3f)\n",
		cfg.workload, cfg.seed, out.passes, out.attempted, out.failed,
		perJob(float64(out.failed), out.attempted), correct, took.Seconds(), out.stealFrac)
	if len(out.digests) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: digests %s\n", strings.Join(out.digests, " "))
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
	}
	for _, d := range defs {
		if m, ok := metrics[d.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", d.Name, m["value"], d.Unit)
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(line))
	return correct
}

// writeRecord stores the full result record (environment, per-pass
// samples and spreads, digests) under the work directory.
func writeRecord(cfg config, record map[string]any) error {
	dir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// environment describes the machine and build a result came from.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks reads the machine's total CPU steal time from /proc/stat,
// in clock ticks (0 where unavailable).
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// commit names the source revision: the build's VCS stamp when there is
// one, else git's answer, else "unknown" (a plain source checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
