package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/metrics"
)

// Tiny versions of the sim workloads for the smoke test. They are
// registered before any child pass starts, so the test binary can run
// them as child processes too.
var tinySims = []simWorkload{
	{
		name: "tiny-fig2",
		scenario: func(seed int64) experiments.Scenario {
			s := simFig2.scenario(seed)
			s.Workload = s.Workload.Scale(0.2)
			return s
		},
		modelPasses: 1,
	},
	{
		name: "tiny-churn",
		scenario: func(seed int64) experiments.Scenario {
			s := simChurn.scenario(seed)
			s.Workload.Nodes, s.Workload.Jobs = 12, 40
			return s
		},
		modelPasses: 1,
	},
}

func TestMain(m *testing.M) {
	simWorkloads = append(simWorkloads, tinySims...)
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := runChild(os.Args[1:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMetricListsMatchBenchmarkJSON pins the metric names and units the
// program reports to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

// TestSimDuplicateDeliveryIsCaught feeds a collector one lineage
// delivered twice and one never delivered.
func TestSimDuplicateDeliveryIsCaught(t *testing.T) {
	col := metrics.NewCollector()
	a, b := ids.HashString("a"), ids.HashString("b")
	col.Record(grid.Event{Kind: grid.EvSubmitted, JobID: a, Node: "c", Seq: 1})
	col.Record(grid.Event{Kind: grid.EvSubmitted, JobID: b, Node: "c", Seq: 2})
	col.Record(grid.Event{Kind: grid.EvResultDelivered, JobID: a})
	col.Record(grid.Event{Kind: grid.EvResultDelivered, JobID: a})
	missing, dups := checkDeliveries(col, 2)
	if missing != 1 || dups != 1 {
		t.Fatalf("missing=%d dups=%d, want 1 and 1", missing, dups)
	}
}

// TestLiveDuplicateDeliveryFailsRun delivers one result twice and one
// result nobody submitted: both count as duplicates and fail the run.
func TestLiveDuplicateDeliveryFailsRun(t *testing.T) {
	tr := newTracker()
	j1, j2 := &job{seq: 1}, &job{seq: 2}
	tr.add(j1)
	tr.add(j2)
	tr.deliver(grid.Result{JobID: grid.JobGUID(genAddr, 1, 0)})
	tr.deliver(grid.Result{JobID: grid.JobGUID(genAddr, 1, 0)})
	tr.deliver(grid.Result{JobID: grid.JobGUID(genAddr, 99, 0)})
	run := &liveRun{jobs: []*job{j1, j2}}
	run.jobs, run.stray = tr.settle(run.jobs)
	out := newOutcome()
	checkLive(out, run)
	if out.failed != 3 || len(out.problems) == 0 {
		t.Fatalf("failed=%d problems=%v, want 3 failed (1 missing, 2 duplicate) and a problem", out.failed, out.problems)
	}
}

// TestSmoke runs every workload at tiny size with tracing on, which
// also runs the untraced passes, and checks that each run is correct
// and reports every end-to-end and per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live grids")
	}
	dir := t.TempDir()
	gridnode := filepath.Join(dir, "gridnode")
	if out, err := exec.Command("go", "build", "-o", gridnode, "repro/cmd/gridnode").CombinedOutput(); err != nil {
		t.Fatalf("build gridnode: %v\n%s", err, out)
	}
	cfg := config{seed: 1, seconds: 1, trace: true, gridnode: gridnode, workdir: dir}
	runs := map[string]func(config) (*outcome, error){
		"sim-fig2":    func(cfg config) (*outcome, error) { return runSim(cfg, tinySims[0]) },
		"sim-churn":   func(cfg config) (*outcome, error) { return runSim(cfg, tinySims[1]) },
		"live-stream": runLiveStream,
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			out, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Fatalf("problems=%v failed=%d attempted=%d", out.problems, out.failed, out.attempted)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := out.values[d.Name]; !ok {
					t.Errorf("metric %s not reported", d.Name)
				}
			}
		})
	}
}
