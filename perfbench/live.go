package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/nettransport"
	"repro/internal/obs"
	"repro/internal/rntree"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The live grid: three gridnode processes on fixed loopback ports, so
// the ring layout is the same in every run, and one generator (this
// process) on a fixed port, so job identities (client address and
// sequence number) repeat for a given seed and owner placement repeats
// run to run.
const (
	genAddr        = "127.0.0.1:47300"
	nodePortBase   = 47301 // nodes listen on 47301.., metrics on 47311..
	liveNodes      = 3
	liveSetups     = 3 // set-ups per run; setup_s is their median
	jobWork        = time.Millisecond
	streamRate     = 100              // live-stream jobs per second
	traceSample    = 800              // newest jobs whose grid.trace the traced pass pulls
	probeJobs      = 30               // jobs in the probe round that ends convergence
	probeLimit     = 90 * time.Second // longest a probe phase may take
	treeSettle     = 2 * time.Second  // how long the RN-Tree must stay unchanged (see converge)
	startTransient = 18 * time.Second // grid age before the measured phase (see converge)
)

// nodeCPU is each node's advertised CPU speed (as scripts/live_bench.sh).
var nodeCPU = []string{"5", "8", "3"}

// liveGrid is one running three-node grid plus the generator's host.
type liveGrid struct {
	procs   []*exec.Cmd
	metrics []string // /metrics addresses; nil when untraced
	host    *nettransport.Host
	gen     *obs.Obs // the generator's instrumentation; nil when untraced
	track   *tracker
	started time.Time // when the first node was spawned
}

func nodeAddr(i int) string { return fmt.Sprintf("127.0.0.1:%d", nodePortBase+i) }

// startGrid spawns the nodes, waits until each has created or joined
// the ring, and opens the generator host. traced starts the nodes with
// -metrics-addr and instruments the generator.
func startGrid(cfg config, traced bool) (*liveGrid, error) {
	if cfg.gridnode == "" {
		return nil, fmt.Errorf("live workloads need -gridnode (run through perfbench/run.sh)")
	}
	tmp, err := filepath.Abs(filepath.Join(cfg.workdir, "tmp"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	g := &liveGrid{track: newTracker(), started: time.Now()}
	for i := 0; i < liveNodes; i++ {
		args := []string{"-listen", nodeAddr(i), "-cpu", nodeCPU[i]}
		if i > 0 {
			args = append(args, "-bootstrap", nodeAddr(0))
		}
		if traced {
			m := fmt.Sprintf("127.0.0.1:%d", nodePortBase+10+i)
			args = append(args, "-metrics-addr", m)
			g.metrics = append(g.metrics, m)
		}
		cmd := exec.Command(cfg.gridnode, args...)
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			g.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			g.stop()
			return nil, fmt.Errorf("start gridnode %d: %w", i, err)
		}
		g.procs = append(g.procs, cmd)
		if err := awaitJoined(stdout, 30*time.Second); err != nil {
			g.stop()
			return nil, fmt.Errorf("gridnode %d: %w", i, err)
		}
	}
	wire.RegisterAll()
	host, err := nettransport.Listen(genAddr)
	if err != nil {
		g.stop()
		return nil, fmt.Errorf("generator: %w", err)
	}
	g.host = host
	if traced {
		g.gen = obs.New()
		host.SetObs(g.gen)
	}
	host.Handle(grid.MResult, func(rt transport.Runtime, from transport.Addr, req any) (any, error) {
		g.track.deliver(req.(grid.ResultReq).Res)
		return grid.ResultResp{}, nil
	})
	return g, nil
}

// awaitJoined reads a node's stdout until it reports that it created or
// joined the grid, then keeps draining it in the background (the node
// logs every job event there).
func awaitJoined(stdout io.Reader, limit time.Duration) error {
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			if !signalled && (strings.HasPrefix(line, "gridnode: created") || strings.HasPrefix(line, "gridnode: joined")) {
				signalled = true
				ready <- nil
			}
		}
		if !signalled {
			ready <- fmt.Errorf("exited before joining the grid")
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case err := <-ready:
		return err
	case <-time.After(limit):
		return fmt.Errorf("not joined after %v", limit)
	}
}

// peakRSSMB is the largest VmHWM (peak resident set) over the nodes.
func (g *liveGrid) peakRSSMB() float64 {
	var peak float64
	for _, p := range g.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.Process.Pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				peak = max(peak, kb/1024)
			}
		}
	}
	return peak
}

// cpuMS is the user plus system CPU time the nodes have used so far.
func (g *liveGrid) cpuMS() float64 {
	const ticksPerSec = 100 // USER_HZ on Linux
	var total float64
	for _, p := range g.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Process.Pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name: utime and stime
		// are the 12th and 13th.
		s := string(data)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 12 {
			ut, _ := strconv.ParseFloat(f[11], 64)
			st, _ := strconv.ParseFloat(f[12], 64)
			total += (ut + st) * 1000 / ticksPerSec
		}
	}
	return total
}

// stop closes the generator host and stops every node, waiting for
// each to exit.
func (g *liveGrid) stop() {
	if g.host != nil {
		g.host.Close()
	}
	for _, p := range g.procs {
		_ = p.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range g.procs {
		done := make(chan struct{})
		go func(p *exec.Cmd) {
			_ = p.Wait()
			close(done)
		}(p)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
	}
	g.procs = nil
}

// scrapeAll reads /metrics from every node plus the generator's own
// registry and sums them.
func (g *liveGrid) scrapeAll() (scrape, error) {
	total := scrape{}
	add := func(s scrape) {
		for k, v := range s {
			total[k] += v
		}
	}
	for _, addr := range g.metrics {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			return nil, err
		}
		s, err := parseScrape(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		add(s)
	}
	var buf bytes.Buffer
	g.gen.Registry().WritePrometheus(&buf)
	s, err := parseScrape(&buf)
	if err != nil {
		return nil, err
	}
	add(s)
	return total, nil
}

// job is one submitted job as the generator tracks it.
type job struct {
	seq   int
	due   time.Time // when it was scheduled to be sent
	got   time.Time
	res   grid.Result
	count int // deliveries received
}

// tracker records every result delivered to the generator and counts
// duplicates.
type tracker struct {
	mu     sync.Mutex
	jobs   map[ids.ID]*job
	stray  int           // results for jobs never submitted
	notify chan struct{} // signalled on every first delivery
}

func newTracker() *tracker {
	return &tracker{jobs: map[ids.ID]*job{}, notify: make(chan struct{}, 1)}
}

// add registers a job before it is sent.
func (t *tracker) add(j *job) {
	t.mu.Lock()
	t.jobs[grid.JobGUID(genAddr, j.seq, 0)] = j
	t.mu.Unlock()
}

func (t *tracker) deliver(res grid.Result) {
	now := time.Now()
	t.mu.Lock()
	j := t.jobs[res.JobID]
	switch {
	case j == nil:
		t.stray++
	case j.count == 0:
		j.got, j.res = now, res
		j.count = 1
	default:
		j.count++
	}
	t.mu.Unlock()
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// await waits until every job in js has a result or the deadline
// passes.
func (t *tracker) await(js []*job, deadline time.Time) {
	for {
		t.mu.Lock()
		missing := 0
		for _, j := range js {
			if j.count == 0 {
				missing++
			}
		}
		t.mu.Unlock()
		if missing == 0 {
			return
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return
		}
		select {
		case <-t.notify:
		case <-time.After(wait):
		}
	}
}

// settle returns copies of js taken under the lock, for reading once
// the phase is over, plus the count of stray results (for jobs never
// submitted) so far.
func (t *tracker) settle(js []*job) ([]*job, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*job, len(js))
	for i, j := range js {
		cp := *j
		out[i] = &cp
	}
	return out, t.stray
}

// callInject sends one grid.inject or grid.injectbatch call, retrying
// transient failures and honouring backpressure hints, and returns the
// duration of each call made.
func callInject(rt transport.Runtime, items []grid.InjectReq) ([]time.Duration, error) {
	var lats []time.Duration
	pending := items
	for try := 0; try < 10 && len(pending) > 0; try++ {
		t0 := time.Now()
		var failed []grid.InjectReq
		var after time.Duration
		if len(items) == 1 {
			raw, err := rt.CallT(transport.Addr(nodeAddr(0)), grid.MInject, pending[0], 30*time.Second)
			lats = append(lats, time.Since(t0))
			switch {
			case err != nil:
				failed, after = pending, 200*time.Millisecond
			case raw.(grid.InjectResp).RetryAfterMS > 0:
				failed, after = pending, time.Duration(raw.(grid.InjectResp).RetryAfterMS)*time.Millisecond
			}
		} else {
			raw, err := rt.CallT(transport.Addr(nodeAddr(0)), grid.MInjectBatch, grid.InjectBatchReq{Items: pending}, 30*time.Second)
			lats = append(lats, time.Since(t0))
			if err != nil {
				failed, after = pending, 200*time.Millisecond
			} else {
				for k, r := range raw.(grid.InjectBatchResp).Results {
					if r.RetryAfterMS > 0 || r.Err != "" {
						failed = append(failed, pending[k])
						after = max(after, time.Duration(r.RetryAfterMS)*time.Millisecond, 200*time.Millisecond)
					}
				}
			}
		}
		pending = failed
		if len(pending) > 0 {
			rt.Sleep(after)
		}
	}
	if len(pending) > 0 {
		return lats, fmt.Errorf("%d jobs never accepted", len(pending))
	}
	return lats, nil
}

func injectReq(seq int) grid.InjectReq {
	return grid.InjectReq{Client: genAddr, Seq: seq, Work: jobWork}
}

// ready injects probe jobs, one at a time, until one is delivered end
// to end: the grid accepts, places, runs and returns a job.
func (g *liveGrid) ready(seqBase int) error {
	return g.probe(seqBase, 1)
}

// converge waits until the grid is past its start-up transient, then
// runs one round of probeJobs probe jobs, and returns how long after
// set-up that took. A fresh grid delivers its first probe at once, but
// each node computes its RN-Tree parent on the ring as it was when the
// node started and keeps it until the tree's parent refresh, 15 s later
// (rntree.Config.ParentRefreshEvery; gridnode keeps the default). Until
// then the tree can be a forest or have the wrong root, and when it
// rebuilds, matchmaking stalls for seconds: timing a workload across
// that measures start-up, not the per-job path. So the grid must be
// older than startTransient and its tree, read through rnt.parent, one
// tree that has not changed for treeSettle.
func (g *liveGrid) converge(seqBase int) (float64, error) {
	t0 := time.Now()
	errc := make(chan error, 1)
	g.host.Go("converge", func(rt transport.Runtime) {
		var shape string
		var since time.Time
		for time.Since(t0) < probeLimit {
			rt.Sleep(250 * time.Millisecond)
			cur, ok := treeShape(rt)
			if !ok || cur != shape {
				shape, since = cur, time.Now()
				continue
			}
			if time.Since(since) >= treeSettle && time.Since(g.started) >= startTransient {
				errc <- nil
				return
			}
		}
		errc <- fmt.Errorf("RN-Tree not settled within %v", probeLimit)
	})
	if err := <-errc; err != nil {
		return 0, err
	}
	err := g.probe(seqBase, probeJobs)
	return time.Since(t0).Seconds(), err
}

// treeShape asks every node for its RN-Tree parent (rnt.parent) and
// returns the parent of each node, in node order, and whether they form
// one tree: a single root, and every other node's parent chain reaching
// it.
func treeShape(rt transport.Runtime) (string, bool) {
	parent := map[transport.Addr]transport.Addr{}
	var shape []string
	for i := 0; i < liveNodes; i++ {
		addr := transport.Addr(nodeAddr(i))
		raw, err := rt.CallT(addr, rntree.MParent, rntree.ParentReq{}, time.Second)
		if err != nil {
			return "", false
		}
		parent[addr] = raw.(rntree.ParentResp).Parent.Addr
		shape = append(shape, string(parent[addr]))
	}
	roots := 0
	for addr := range parent {
		hops := 0
		for cur := addr; parent[cur] != ""; cur = parent[cur] {
			if _, known := parent[parent[cur]]; !known || hops == liveNodes {
				return "", false
			}
			hops++
		}
		if parent[addr] == "" {
			roots++
		}
	}
	return strings.Join(shape, ","), roots == 1
}

// probe injects rounds of n probe jobs, each as one call, until a
// round has a job delivered end to end.
func (g *liveGrid) probe(seqBase, n int) error {
	limit := time.Now().Add(probeLimit)
	errc := make(chan error, 1)
	g.host.Go("probe", func(rt transport.Runtime) {
		for round := 0; time.Now().Before(limit); round++ {
			var probes []*job
			var reqs []grid.InjectReq
			for k := 0; k < n; k++ {
				j := &job{seq: seqBase + round*n + k, due: time.Now()}
				g.track.add(j)
				probes = append(probes, j)
				reqs = append(reqs, injectReq(j.seq))
			}
			if _, err := callInject(rt, reqs); err != nil {
				rt.Sleep(100 * time.Millisecond)
				continue
			}
			g.track.await(probes, time.Now().Add(5*time.Second))
			got, _ := g.track.settle(probes)
			for _, j := range got {
				if j.count > 0 {
					errc <- nil
					return
				}
			}
		}
		errc <- fmt.Errorf("no probe job delivered within %v", probeLimit)
	})
	return <-errc
}

// liveRun is one measured phase on one grid.
type liveRun struct {
	jobs      []*job
	injectLat []time.Duration
	late      []float64 // ms the generator sent each job after its due time
	stray     int       // results for jobs never submitted
	// convergeS is how long the grid took, after set-up, to converge
	// (see liveGrid.converge).
	convergeS float64
	cpuMS     float64
	peakRSS   float64
}

// liveWorkload drives one measured phase on a ready grid.
type liveWorkload func(cfg config, g *liveGrid, seqBase int) (*liveRun, error)

// seqBase numbers a run's jobs: workload jobs count up from it, and
// probes use the range above 90,000,000, so no two jobs of a run (or of
// two seeds) share an identity.
func seqBase(seed int64) int { return int(seed) * 100_000_000 }

// runLive is the live harness: liveSetups set-ups (each timed from
// spawn to a delivered probe), the measured phase on the last one, and
// with -trace 1 a traced replay on a fresh, instrumented grid.
func runLive(cfg config, measure liveWorkload) (*outcome, error) {
	out := newOutcome()
	base := seqBase(cfg.seed)
	var run *liveRun
	for s := 0; s < liveSetups; s++ {
		t0 := time.Now()
		g, err := startGrid(cfg, false)
		if err != nil {
			return nil, err
		}
		if err := g.ready(base + 90_000_000 + s*100_000); err != nil {
			g.stop()
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		out.samples["setup_s"] = append(out.samples["setup_s"], setup)
		fmt.Fprintf(os.Stderr, "perfbench: %s set-up %d: %.3fs\n", cfg.workload, s, setup)
		if s < liveSetups-1 {
			g.stop()
			continue
		}
		run, err = convergeAndMeasure(cfg, g, base, measure)
		g.stop()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s converged %.3fs after set-up\n", cfg.workload, run.convergeS)
	}
	out.values["setup_s"] = metrics.Quantile(out.samples["setup_s"], 0.5)
	checkLive(out, run)
	liveEndToEnd(out, run)

	if cfg.trace {
		g, err := startGrid(cfg, true)
		if err != nil {
			return nil, err
		}
		defer g.stop()
		if err := g.ready(base + 99_000_000); err != nil {
			return nil, err
		}
		var before scrape
		traced, err := convergeAndMeasure(cfg, g, base, func(cfg config, g *liveGrid, base int) (*liveRun, error) {
			var err error
			if before, err = g.scrapeAll(); err != nil {
				return nil, err
			}
			return measure(cfg, g, base)
		})
		if err != nil {
			return nil, err
		}
		after, err := g.scrapeAll()
		if err != nil {
			return nil, err
		}
		checkLive(out, traced)
		missing, _ := tallyJobs(traced.jobs)
		for k, v := range liveLayers(delta(before, after), len(traced.jobs)-missing) {
			out.values[k] = v
		}
		stages, err := g.stages(traced.jobs)
		if err != nil {
			return nil, err
		}
		for k, v := range stages {
			out.values[k] = v
		}
		out.values["grid.wasted_work_s"] = 0
		untraced := latencyP50(run)
		out.values["trace.overhead_frac"] = (latencyP50(traced) - untraced) / untraced
		out.values["gridnode.cpu_ms_per_job"] = perJob(run.cpuMS, len(run.jobs))
		out.values["gridnode.converge_s"] = run.convergeS
		out.values["client.inject_p50_ms"] = metrics.Quantile(durationsMS(run.injectLat), 0.5)
		out.values["client.gen_late_p99_ms"] = metrics.Quantile(run.late, 0.99)
		for _, name := range []string{"sim.events_fired", "sim.spawns", "sim.switches", "sim.switches_per_event",
			"sim.ns_per_event", "sim.peak_procs", "sim.peak_heap", "process.alloc_bytes_per_event",
			"process.gc_cpu_frac", "process.heap_live_mb_end", "simnet.messages", "simnet.faulted"} {
			out.values[name] = 0
		}
		for _, tag := range layerTags {
			out.values["layer."+tag+".events"] = 0
			out.values["layer."+tag+".switches"] = 0
			out.values["layer."+tag+".wall_s"] = 0
		}
	}
	return out, nil
}

// convergeAndMeasure waits for g to converge, runs the measured phase
// on it, samples the nodes' CPU time around the phase and their peak
// RSS after it, and settles the phase's jobs.
func convergeAndMeasure(cfg config, g *liveGrid, base int, measure liveWorkload) (*liveRun, error) {
	convergeS, err := g.converge(base + 95_000_000)
	if err != nil {
		return nil, err
	}
	cpu0 := g.cpuMS()
	run, err := measure(cfg, g, base)
	if err != nil {
		return nil, err
	}
	run.convergeS = convergeS
	run.cpuMS = g.cpuMS() - cpu0
	run.peakRSS = g.peakRSSMB()
	run.jobs, run.stray = g.track.settle(run.jobs)
	return run, nil
}

// checkLive adds a phase's jobs to the attempted/failed counts and
// fails the run on any duplicate delivery.
func checkLive(out *outcome, run *liveRun) {
	missing, dups := tallyJobs(run.jobs)
	dups += run.stray
	out.attempted += len(run.jobs)
	out.failed += missing + dups
	if dups > 0 {
		out.fail("%d duplicate or unexpected result deliveries", dups)
	}
}

// tallyJobs counts jobs never delivered and surplus deliveries.
func tallyJobs(js []*job) (missing, dups int) {
	for _, j := range js {
		if j.count == 0 {
			missing++
		} else {
			dups += j.count - 1
		}
	}
	return missing, dups
}

// liveEndToEnd computes the end-to-end metrics of a measured phase,
// from the first job's due time to the last delivery.
func liveEndToEnd(out *outcome, run *liveRun) {
	start, end := run.jobs[0].due, run.jobs[0].due
	var lat, wait []float64
	for _, j := range run.jobs {
		if j.count == 0 {
			continue
		}
		if j.got.After(end) {
			end = j.got
		}
		l := j.got.Sub(j.due)
		lat = append(lat, float64(l)/float64(time.Millisecond))
		wait = append(wait, (l - (j.res.Finished - j.res.Started)).Seconds())
	}
	wall := end.Sub(start).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %d/%d jobs delivered in %.3fs, by run node %v\n",
		len(lat), len(run.jobs), wall, byRunNode(run.jobs))
	out.passes = 1
	out.values["peak_rss_mb"] = run.peakRSS
	out.values["sim_wall_s"] = wall
	out.values["jobs_per_s"] = float64(len(lat)) / wall
	out.values["sim_wait_mean_s"] = metrics.Summarize(wait).Mean
	out.values["latency_p50_ms"] = metrics.Quantile(lat, 0.50)
	out.values["latency_p99_ms"] = metrics.Quantile(lat, 0.99)
	for _, name := range []string{"peak_rss_mb", "sim_wall_s", "jobs_per_s", "sim_wait_mean_s", "latency_p50_ms", "latency_p99_ms"} {
		out.samples[name] = []float64{out.values[name]}
	}
}

// byRunNode counts delivered jobs per run node.
func byRunNode(js []*job) map[transport.Addr]int {
	n := map[transport.Addr]int{}
	for _, j := range js {
		if j.count > 0 {
			n[j.res.RunNode]++
		}
	}
	return n
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// senders is how many generator activities send concurrently: no more
// than the machine has CPUs.
func senders() int { return min(2, runtime.NumCPU()) }

// runLiveStream: an open loop of independent users. Jobs are due at a
// fixed rate for the measuring time, each sent by one of the sender
// activities at its due time (or as soon after as a sender is free),
// and timed from its due time to its result reaching the generator.
func runLiveStream(cfg config) (*outcome, error) {
	measure := func(cfg config, g *liveGrid, base int) (*liveRun, error) {
		n := int(cfg.seconds * streamRate)
		run := &liveRun{}
		start := time.Now().Add(50 * time.Millisecond)
		for i := 0; i < n; i++ {
			j := &job{seq: base + i, due: start.Add(time.Duration(i) * time.Second / streamRate)}
			g.track.add(j)
			run.jobs = append(run.jobs, j)
		}
		next := make(chan *job)
		var mu sync.Mutex
		var firstErr error
		var wg sync.WaitGroup
		for w := 0; w < senders(); w++ {
			wg.Add(1)
			g.host.Go("stream", func(rt transport.Runtime) {
				defer wg.Done()
				for j := range next {
					time.Sleep(time.Until(j.due))
					late := time.Since(j.due)
					lats, err := callInject(rt, []grid.InjectReq{injectReq(j.seq)})
					mu.Lock()
					run.injectLat = append(run.injectLat, lats...)
					run.late = append(run.late, float64(late)/float64(time.Millisecond))
					if err != nil && firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			})
		}
		for _, j := range run.jobs {
			next <- j
		}
		close(next)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		g.track.await(run.jobs, time.Now().Add(30*time.Second))
		return run, nil
	}
	return runLive(cfg, measure)
}

// latencyP50 is a measured phase's median job latency.
func latencyP50(r *liveRun) float64 {
	var lat []float64
	for _, j := range r.jobs {
		if j.count > 0 {
			lat = append(lat, float64(j.got.Sub(j.due)))
		}
	}
	return metrics.Quantile(lat, 0.5)
}

// stages pulls grid.trace from every node for the newest traceSample
// jobs and returns the stage percentiles. Node clocks count from each
// process's start, so each is aligned to this process's clock first
// through grid.stats.
func (g *liveGrid) stages(js []*job) (map[string]float64, error) {
	if len(js) > traceSample {
		js = js[len(js)-traceSample:]
	}
	type result struct {
		m   map[string]float64
		err error
	}
	done := make(chan result, 1)
	g.host.Go("stages", func(rt transport.Runtime) {
		epoch := time.Now()
		offset := map[transport.Addr]time.Duration{}
		for i := 0; i < liveNodes; i++ {
			addr := transport.Addr(nodeAddr(i))
			best := time.Duration(1 << 62)
			for try := 0; try < 5; try++ {
				t0 := time.Since(epoch)
				raw, err := rt.CallT(addr, grid.MStats, grid.StatsReq{}, 10*time.Second)
				t1 := time.Since(epoch)
				if err != nil {
					done <- result{err: fmt.Errorf("grid.stats %s: %w", addr, err)}
					return
				}
				if rtt := t1 - t0; rtt < best {
					best = rtt
					offset[addr] = (t0+t1)/2 - raw.(grid.StatsResp).Stats.Now
				}
			}
		}
		got := map[ids.ID]float64{}
		var jobs [][]obs.TraceEvent
		for _, j := range js {
			if j.count == 0 {
				continue
			}
			id := grid.TraceID(genAddr, j.seq)
			got[id] = float64(j.got.Sub(epoch)) / float64(time.Millisecond)
			var evs []obs.TraceEvent
			for i := 0; i < liveNodes; i++ {
				raw, err := rt.CallT(transport.Addr(nodeAddr(i)), grid.MTrace, grid.TraceReq{Trace: id}, 10*time.Second)
				if err != nil {
					done <- result{err: fmt.Errorf("grid.trace: %w", err)}
					return
				}
				evs = append(evs, raw.(grid.TraceResp).Events...)
			}
			jobs = append(jobs, evs)
		}
		at := func(ev obs.TraceEvent) float64 {
			return float64(ev.At+offset[ev.Node]) / float64(time.Millisecond)
		}
		deliveredAt := func(evs []obs.TraceEvent) (float64, bool) {
			if len(evs) == 0 {
				return 0, false
			}
			t, ok := got[evs[0].Trace]
			return t, ok
		}
		done <- result{m: stagePercentiles(jobs, at, deliveredAt)}
	})
	r := <-done
	return r.m, r.err
}
