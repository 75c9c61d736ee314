package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// simWorkload is one simulated deployment the benchmark drives through
// experiments.Build and Deployment.Run.
type simWorkload struct {
	name     string
	scenario func(seed int64) experiments.Scenario
	// modelPasses is how many passes feed the model metrics
	// (sim_wait_mean_s, latency_*): a fixed count, so those metrics are
	// a pure function of the seed however fast the host is. Timing
	// metrics take every pass the measuring time allows.
	modelPasses int
}

// simFig2 is one Figure-2 cell of the paper: RN-Tree matchmaking,
// mixed node and job populations, heavily constrained jobs, overlay
// maintenance off, no faults. The grid run-queue poll and heartbeats
// fire most of its events, so kernel and grid-layer changes show here
// and chord changes do not.
var simFig2 = simWorkload{
	name: "sim-fig2",
	scenario: func(seed int64) experiments.Scenario {
		wcfg := workload.NewConfig()
		wcfg.Seed = seed + 1
		wcfg = wcfg.Scale(0.1)
		wcfg.NodePop = workload.Mixed
		wcfg.JobPop = workload.Mixed
		wcfg.Level = workload.Heavily
		return experiments.Scenario{Alg: experiments.AlgRNTree, Workload: wcfg, NetSeed: seed + 77}
	},
	modelPasses: 10,
}

// simChurn is the full robustness stack on a small grid: overlay
// maintenance, a seeded crash/restart schedule with pair crashes,
// heartbeat drops and message delays, adaptive checkpoints, two owner
// replicas and push notifications. Chord, replica and pubsub carry most
// of its host time; it is the opposite mix to sim-fig2.
var simChurn = simWorkload{
	name: "sim-churn",
	scenario: func(seed int64) experiments.Scenario {
		wcfg := workload.NewConfig()
		wcfg.Seed = seed + 1
		wcfg.Nodes = 30
		wcfg.Jobs = 240
		wcfg.MeanRuntime = 8 * time.Second
		wcfg.MeanInterarrival = 800 * time.Millisecond
		return experiments.Scenario{
			Alg:         experiments.AlgRNTree,
			Workload:    wcfg,
			NetSeed:     seed + 90,
			Maintenance: true,
			Notify:      true,
			// Unconstrained jobs stay runnable whichever nodes crash: a
			// constrained job whose only fitting nodes are down never
			// runs, because a restarted node answers RPCs but does not
			// rejoin the RN-Tree (see experiments.Deployment.Restart).
			MutateWorkload: func(w *workload.Workload) {
				for i := range w.Jobs {
					w.Jobs[i].Cons = resource.Unconstrained
				}
			},
			Grid: grid.Config{
				ReplicaK:           2,
				CheckpointEvery:    3 * time.Second,
				CheckpointAdaptive: true,
				CheckpointMinEvery: time.Second,
				CheckpointMaxEvery: 10 * time.Second,
			},
			Faults: &faultinject.Plan{
				Crashes:         2,
				PairCrashes:     1,
				RestartProb:     0.5,
				RestartDelayMin: 10 * time.Second,
				RestartDelayMax: 30 * time.Second,
				Rules: []faultinject.Rule{
					{Method: grid.MHeartbeat, DropProb: 0.1},
					{DelayProb: 0.1, DelayMin: 50 * time.Millisecond, DelayMax: 500 * time.Millisecond},
				},
			},
			FaultSeed: seed + 91,
		}
	},
	modelPasses: 8,
}

// simWorkloads are the sim workloads a child pass can be asked to run.
var simWorkloads = []simWorkload{simFig2, simChurn}

func simWorkloadNamed(name string) (simWorkload, bool) {
	for _, w := range simWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return simWorkload{}, false
}

// passSeed derives pass k's seed from the run seed, so a run's inputs
// are a function of its seed alone.
func passSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// simPass is one simulation pass, as a child process reports it.
type simPass struct {
	Seed      int64   `json:"seed"`
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	Jobs      int     `json:"jobs"`
	Delivered int     `json:"delivered"`
	Missing   int     `json:"missing"`
	Dups      int     `json:"dups"`
	// WaitSumS and Waits pool the Fig-2 wait (submission to execution
	// start, simulated seconds) across passes.
	WaitSumS float64 `json:"wait_sum_s"`
	Waits    int     `json:"waits"`
	// TurnaroundMS is each delivered job's submission-to-delivery time
	// in simulated milliseconds.
	TurnaroundMS []float64 `json:"turnaround_ms"`
	Digest       string    `json:"digest"`
	// Process holds runtime/metrics figures of the pass's process.
	Process map[string]float64 `json:"process"`
	// Layers holds the per-layer metrics of a traced pass.
	Layers map[string]float64 `json:"layers,omitempty"`

	// Filled in by the parent from the child's resource usage.
	PeakRSSMB float64 `json:"-"`
	CPUMS     float64 `json:"-"`
}

// runSim runs a sim workload: untraced passes, each in a fresh child
// process, until the measuring time is spent (at least modelPasses),
// then with -trace 1 one traced pass replaying pass 0's seed.
func runSim(cfg config, w simWorkload) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var passes []simPass
	began := time.Now()
	for k := 0; k < w.modelPasses || time.Since(began).Seconds() < cfg.seconds; k++ {
		p, err := runSimPass(exe, w.name, passSeed(cfg.seed, k), false)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d seed %d: setup %.3fs run %.3fs rss %.0fMB delivered %d/%d\n",
			w.name, k, p.Seed, p.SetupS, p.RunS, p.PeakRSSMB, p.Delivered, p.Jobs)
		passes = append(passes, p)
	}
	out.passes = len(passes)

	var waitSum float64
	var waits int
	var turnaround []float64
	for k, p := range passes {
		out.attempted += p.Jobs
		out.failed += p.Missing + p.Dups
		if p.Dups > 0 {
			out.fail("pass %d (seed %d): %d duplicate deliveries", k, p.Seed, p.Dups)
		}
		out.digests = append(out.digests, p.Digest)
		out.samples["setup_s"] = append(out.samples["setup_s"], p.SetupS)
		out.samples["peak_rss_mb"] = append(out.samples["peak_rss_mb"], p.PeakRSSMB)
		out.samples["sim_wall_s"] = append(out.samples["sim_wall_s"], p.RunS)
		out.samples["jobs_per_s"] = append(out.samples["jobs_per_s"], float64(p.Delivered)/p.RunS)
		if k < w.modelPasses {
			waitSum += p.WaitSumS
			waits += p.Waits
			turnaround = append(turnaround, p.TurnaroundMS...)
		}
	}
	for _, name := range []string{"setup_s", "peak_rss_mb", "sim_wall_s", "jobs_per_s"} {
		out.values[name] = metrics.Quantile(out.samples[name], 0.5)
	}
	out.values["sim_wait_mean_s"] = perJob(waitSum, waits)
	out.values["latency_p50_ms"] = metrics.Quantile(turnaround, 0.50)
	out.values["latency_p99_ms"] = metrics.Quantile(turnaround, 0.99)

	if cfg.trace {
		tp, err := runSimPass(exe, w.name, passSeed(cfg.seed, 0), true)
		if err != nil {
			return nil, err
		}
		out.attempted += tp.Jobs
		out.failed += tp.Missing + tp.Dups
		if tp.Dups > 0 {
			out.fail("traced pass (seed %d): %d duplicate deliveries", tp.Seed, tp.Dups)
		}
		// Kernel stats and the obs layer are replay-neutral: the traced
		// replay of pass 0 must simulate exactly the same outcome.
		if tp.Digest != passes[0].Digest {
			out.fail("traced pass digest %s differs from untraced pass 0 digest %s (seed %d)", tp.Digest, passes[0].Digest, tp.Seed)
		}
		for name, v := range tp.Layers {
			out.values[name] = v
		}
		// Pass 0 replays the traced pass's seed, so it fired the same
		// events the traced pass counted.
		out.values["process.alloc_bytes_per_event"] = perJob(passes[0].Process["alloc_bytes"], int(tp.Layers["sim.events_fired"]))
		var gc, heap, cpu []float64
		for _, p := range passes {
			gc = append(gc, p.Process["gc_cpu_frac"])
			heap = append(heap, p.Process["heap_live_mb"])
			cpu = append(cpu, perJob(p.CPUMS, p.Delivered))
		}
		out.values["process.gc_cpu_frac"] = metrics.Quantile(gc, 0.5)
		out.values["process.heap_live_mb_end"] = metrics.Quantile(heap, 0.5)
		out.values["gridnode.cpu_ms_per_job"] = metrics.Quantile(cpu, 0.5)
		// Overhead against pass 0, which ran the same seed untraced.
		out.values["trace.overhead_frac"] = (tp.RunS - passes[0].RunS) / passes[0].RunS
		for _, name := range []string{"nettransport.bytes_per_job", "nettransport.calls_per_job",
			"nettransport.overhead_ms", "gridnode.converge_s", "client.inject_p50_ms", "client.gen_late_p99_ms"} {
			out.values[name] = 0
		}
		for _, tag := range layerTags {
			out.values["layer."+tag+".client_p50_ms"] = 0
			out.values["layer."+tag+".server_p50_ms"] = 0
		}
	}
	return out, nil
}

// runSimPass runs one pass in a child process and reads back its
// report, adding the child's peak RSS and CPU time.
func runSimPass(exe, name string, seed int64, trace bool) (simPass, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-child", name, "-seed", fmt.Sprint(seed), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return simPass{}, fmt.Errorf("pass seed %d: %w", seed, err)
	}
	var p simPass
	if err := json.Unmarshal(stdout.Bytes(), &p); err != nil {
		return simPass{}, fmt.Errorf("pass seed %d: bad report: %w", seed, err)
	}
	st := cmd.ProcessState
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		p.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	p.CPUMS = float64(st.UserTime()+st.SystemTime()) / float64(time.Millisecond)
	return p, nil
}

// simChild runs one pass in this process and prints its simPass.
func simChild(name string, seed int64, trace bool) error {
	w, ok := simWorkloadNamed(name)
	if !ok {
		return fmt.Errorf("unknown sim workload %q", name)
	}
	s := w.scenario(seed)
	var o *obs.Obs
	if trace {
		o = obs.New()
		s.Grid.Obs = o
		s.Instrument = &experiments.Instrument{Stats: true}
	}
	t0 := time.Now()
	d := experiments.Build(s)
	setup := time.Since(t0)
	t1 := time.Now()
	res := d.Run()
	run := time.Since(t1)

	p := simPass{Seed: seed, SetupS: setup.Seconds(), RunS: run.Seconds(), Jobs: len(d.W.Jobs), Delivered: res.Delivered}
	p.Missing, p.Dups = checkDeliveries(d.Collector, len(d.W.Jobs))
	for _, t := range d.Collector.Jobs() {
		if w, ok := t.Wait(); ok {
			p.WaitSumS += w.Seconds()
			p.Waits++
		}
		if ta, ok := t.Turnaround(); ok {
			p.TurnaroundMS = append(p.TurnaroundMS, float64(ta)/float64(time.Millisecond))
		}
	}
	p.Digest = simDigest(d)
	p.Process = processMetrics()
	if trace {
		p.Layers = simLayers(d, res, o)
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

// checkDeliveries counts, over a deployment's job traces, the job
// lineages (client, submission number) never delivered and the surplus
// deliveries beyond one per lineage.
func checkDeliveries(col *metrics.Collector, submitted int) (missing, dups int) {
	perLineage := map[string]int{}
	tracesDelivered := 0
	for _, t := range col.Jobs() {
		if t.Delivered {
			tracesDelivered++
			perLineage[fmt.Sprintf("%s/%d", t.Client, t.Seq)]++
		}
	}
	// A job trace records its first delivery only; any further
	// delivery event of the same job is a duplicate.
	dups = col.Count(grid.EvResultDelivered) - tracesDelivered
	for _, n := range perLineage {
		dups += n - 1
	}
	return submitted - len(perLineage), dups
}

// simDigest fingerprints the simulated outcome: per job, its attempt,
// submission, start and delivery instants, and the nodes that executed
// it with the work each did.
func simDigest(d *experiments.Deployment) string {
	execBy := map[ids.ID][]string{}
	for i, g := range d.Grids {
		for id, work := range g.ExecutedByJob() {
			execBy[id] = append(execBy[id], fmt.Sprintf("%s=%d", d.Hosts[i].Addr(), work))
		}
	}
	h := sha256.New()
	for _, t := range d.Collector.Jobs() {
		nodes := execBy[t.JobID]
		sort.Strings(nodes)
		fmt.Fprintf(h, "%s a%d sub%d start%d res%d del%v %s\n",
			t.JobID, t.Attempt, t.SubmitAt, t.StartedAt, t.ResultAt, t.Delivered, strings.Join(nodes, ","))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// processMetrics reads this process's allocation, GC and heap figures.
func processMetrics() map[string]float64 {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	rtmetrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	m := map[string]float64{"alloc_bytes": val(0), "heap_live_mb": val(3) / (1 << 20)}
	if total := val(2); total > 0 {
		m["gc_cpu_frac"] = val(1) / total
	}
	return m
}

// simLayers is the per-layer table of a traced pass: kernel stats,
// per-tag attribution, network and grid counters, and stage times
// (simulated milliseconds) from the grid tracer.
func simLayers(d *experiments.Deployment, res experiments.Results, o *obs.Obs) map[string]float64 {
	st := d.Engine.Stats()
	m := map[string]float64{
		"sim.events_fired":       float64(st.EventsFired),
		"sim.spawns":             float64(st.Spawns),
		"sim.switches":           float64(st.Switches),
		"sim.switches_per_event": st.SwitchesPerEvent(),
		"sim.ns_per_event":       perJob(float64(st.WallNS), int(st.EventsFired)),
		"sim.peak_procs":         float64(st.PeakProcs),
		"sim.peak_heap":          float64(st.PeakQueue),
		"simnet.messages":        float64(res.Messages),
		"simnet.faulted":         float64(res.Faulted),
		"match.msgs_per_match":   res.MatchCost.Mean,
		"match.visits_per_match": res.MatchVisits.Mean,
		"grid.match_failed":      float64(res.MatchFailed),
		"grid.resubmits":         float64(res.Resubmits),
		"grid.promotions":        float64(res.Promotions),
		"grid.checkpoints":       float64(res.Checkpoints),
		"grid.wasted_work_s":     res.WastedWork.Seconds(),
		"grid.status_rpcs":       float64(res.StatusRPCs),
	}
	calls := map[string]int64{}
	for method, n := range d.Net.Stats.ByMethod {
		calls[simnet.LayerOf(method)] += n
	}
	for _, tag := range layerTags {
		ts := st.ByTag[tag]
		if ts == nil {
			ts = new(sim.TagStats)
		}
		m["layer."+tag+".events"] = float64(ts.Fired)
		m["layer."+tag+".switches"] = float64(ts.Switches)
		m["layer."+tag+".wall_s"] = float64(ts.WallNS) / 1e9
		m["layer."+tag+".calls_per_job"] = perJob(float64(calls[tag]), len(d.W.Jobs))
	}
	tracer := o.GetTracer()
	var jobs [][]obs.TraceEvent
	for _, id := range tracer.Traces() {
		evs, _ := tracer.Get(id)
		jobs = append(jobs, evs)
	}
	ms := func(ev obs.TraceEvent) float64 { return float64(ev.At) / float64(time.Millisecond) }
	for k, v := range stagePercentiles(jobs, ms, nil) {
		m[k] = v
	}
	return m
}
