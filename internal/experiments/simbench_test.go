package experiments

import (
	"encoding/json"
	"testing"
	"time"
)

func TestParseRunfile(t *testing.T) {
	cfg, err := ParseRunfile(`
# kernel throughput ladder
scales = 0.1, 0.5, 2   # fractions of paper scale
grow = true
budget = 90s
alg = can
maintenance = false
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Scales) != 3 || cfg.Scales[0] != 0.1 || cfg.Scales[2] != 2 {
		t.Fatalf("scales = %v", cfg.Scales)
	}
	if !cfg.Grow || cfg.WallBudget != 90*time.Second || cfg.Maintenance {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Alg != AlgCAN {
		t.Fatalf("alg = %v", cfg.Alg)
	}
}

func TestParseRunfileDefaultsAndErrors(t *testing.T) {
	cfg, err := ParseRunfile("# comments only\n")
	if err != nil {
		t.Fatal(err)
	}
	if d := DefaultSimBench(); len(cfg.Scales) != len(d.Scales) || cfg.Alg != d.Alg {
		t.Fatalf("empty runfile should keep defaults, got %+v", cfg)
	}
	for _, bad := range []string{
		"scales 0.5",          // no '='
		"scales = -1",         // non-positive scale
		"grow = perhaps",      // bad bool
		"budget = fortnight",  // bad duration
		"alg = quantum",       // unknown matchmaker
		"unknown = 1",         // unknown key
		"scales = # all gone", // empties the ladder
	} {
		if _, err := ParseRunfile(bad); err == nil {
			t.Errorf("ParseRunfile(%q) accepted", bad)
		}
	}
}

func TestSimBenchTinyLadder(t *testing.T) {
	cfg := SimBenchConfig{
		Scales:      []float64{0.005, 0.01},
		WallBudget:  time.Minute,
		Alg:         AlgRNTree,
		Maintenance: true,
	}
	res, tbl := SimBench(cfg, Options{Seed: 1})
	if len(res.Rungs) != 2 {
		t.Fatalf("%d rungs, want 2", len(res.Rungs))
	}
	for i, r := range res.Rungs {
		if r.Delivered != r.Jobs {
			t.Fatalf("rung %d: %d/%d jobs delivered", i, r.Delivered, r.Jobs)
		}
		if r.EventsFired == 0 || r.EventsPerSec == 0 || r.SwitchesPerEvent == 0 ||
			r.Spawns == 0 || r.AllocPerEvent == 0 {
			t.Fatalf("rung %d: empty kernel stats: %+v", i, r)
		}
		if r.TopLayer == "" || len(r.Layers) == 0 {
			t.Fatalf("rung %d: no layer attribution", i)
		}
		if r.PeakEventHeap == 0 || r.PeakProcs < r.Nodes {
			t.Fatalf("rung %d: peaks: heap=%d procs=%d nodes=%d", i, r.PeakEventHeap, r.PeakProcs, r.Nodes)
		}
		if r.OverBudget {
			t.Fatalf("rung %d: over a %v budget at scale %g", i, cfg.WallBudget, r.Scale)
		}
	}
	if res.Rungs[1].EventsFired <= res.Rungs[0].EventsFired {
		t.Fatal("larger rung fired fewer events")
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("table has %d rows", len(tbl.Rows))
	}
	// The payload is what sim_bench.sh writes to BENCH_sim.json: it must
	// round-trip and expose the rung metrics under their documented keys.
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	rungs, ok := decoded["rungs"].([]any)
	if !ok || len(rungs) != 2 {
		t.Fatalf("rungs key missing: %s", blob)
	}
	for _, key := range []string{"go_version", "nproc"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("result JSON missing %q: %s", key, blob)
		}
	}
	first := rungs[0].(map[string]any)
	for _, key := range []string{"events_per_sec", "wall_per_sim_second", "switches_per_event",
		"spawns", "alloc_bytes_per_event", "top_layer", "layers"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("rung JSON missing %q: %s", key, blob)
		}
	}
}

func TestSimBenchGrowLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("grow ladder runs several rungs")
	}
	cfg := SimBenchConfig{
		Scales:      []float64{0.005},
		Grow:        true,
		WallBudget:  5 * time.Second,
		Alg:         AlgRNTree,
		Maintenance: false,
	}
	res, _ := SimBench(cfg, Options{Seed: 1})
	if len(res.Rungs) < 2 {
		t.Fatalf("grow mode added no rungs: %d", len(res.Rungs))
	}
	for i := 1; i < len(res.Rungs); i++ {
		if res.Rungs[i].Scale != res.Rungs[i-1].Scale*2 {
			t.Fatalf("rung %d scale %g, want double of %g", i, res.Rungs[i].Scale, res.Rungs[i-1].Scale)
		}
	}
}
