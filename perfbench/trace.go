package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// stages are the job lifecycle stages, in order, each with the
// grid.trace events that open and close it.
var stages = []struct{ name, from, to string }{
	{"own", "injected", "owned"},
	{"match", "owned", "matched"},
	{"assign", "matched", "enqueued"},
	{"queue", "enqueued", "started"},
	{"run", "started", "executed"},
	{"deliver", "executed", "result-delivered"},
}

// stagePercentiles returns grid.stage.<stage>_ms.p50/.p99 over jobs,
// each given as its trace events. at places an event on a clock common
// to all nodes, in milliseconds. delivered, when non-nil, gives the time
// a job's result reached the client on that clock; it stands in for the
// result-delivered event, which only a client that is a grid node
// records. Only the attempt that executed last is timed.
func stagePercentiles(jobs [][]obs.TraceEvent, at func(obs.TraceEvent) float64, delivered func(evs []obs.TraceEvent) (float64, bool)) map[string]float64 {
	durs := make([][]float64, len(stages))
	for _, evs := range jobs {
		attempt := -1
		for _, ev := range evs {
			if ev.Stage == "executed" && ev.Attempt > attempt {
				attempt = ev.Attempt
			}
		}
		if attempt < 0 {
			continue
		}
		first := map[string]float64{}
		for _, ev := range evs {
			if ev.Attempt != attempt {
				continue
			}
			if _, seen := first[ev.Stage]; !seen {
				first[ev.Stage] = at(ev)
			}
		}
		if delivered != nil {
			if t, ok := delivered(evs); ok {
				first["result-delivered"] = t
			}
		}
		for i, st := range stages {
			from, ok1 := first[st.from]
			to, ok2 := first[st.to]
			if ok1 && ok2 {
				durs[i] = append(durs[i], to-from)
			}
		}
	}
	m := map[string]float64{}
	for i, st := range stages {
		m["grid.stage."+st.name+"_ms.p50"] = metrics.Quantile(durs[i], 0.50)
		m["grid.stage."+st.name+"_ms.p99"] = metrics.Quantile(durs[i], 0.99)
	}
	return m
}

// scrape is one Prometheus text exposition, as full sample name (with
// labels) to value.
type scrape map[string]float64

// parseScrape reads the Prometheus text format gridnode serves on
// /metrics.
func parseScrape(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		s[line[:i]] += v
	}
	return s, sc.Err()
}

// delta returns after minus before for every sample in after.
func delta(before, after scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sample is one parsed sample name: family plus labels.
type sample struct {
	family string
	labels map[string]string
}

func parseName(full string) sample {
	s := sample{family: full, labels: map[string]string{}}
	i := strings.IndexByte(full, '{')
	if i < 0 {
		return s
	}
	s.family = full[:i]
	for _, kv := range strings.Split(strings.TrimSuffix(full[i+1:], "}"), ",") {
		if k, v, ok := strings.Cut(kv, "="); ok {
			s.labels[k] = strings.Trim(v, `"`)
		}
	}
	return s
}

// sum adds every sample of a family whose labels satisfy keep (nil
// keeps all).
func (s scrape) sum(family string, keep func(labels map[string]string) bool) float64 {
	var total float64
	for k, v := range s {
		p := parseName(k)
		if p.family == family && (keep == nil || keep(p.labels)) {
			total += v
		}
	}
	return total
}

// histQuantile merges the buckets of every series of a histogram family
// whose labels satisfy keep and returns the q-quantile, interpolating
// linearly inside the bucket that holds it (0 when the series are
// empty).
func (s scrape) histQuantile(family string, q float64, keep func(labels map[string]string) bool) float64 {
	counts := map[float64]float64{} // upper bound -> cumulative count
	for k, v := range s {
		p := parseName(k)
		if p.family != family+"_bucket" || (keep != nil && !keep(p.labels)) {
			continue
		}
		le := math.Inf(1)
		if p.labels["le"] != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(p.labels["le"], 64); err != nil {
				continue
			}
		}
		counts[le] += v
	}
	bounds := make([]float64, 0, len(counts))
	for b := range counts {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * counts[bounds[len(bounds)-1]]
	lower, below := 0.0, 0.0
	for _, b := range bounds {
		c := counts[b]
		if c >= rank {
			if math.IsInf(b, 1) {
				return lower
			}
			if c == below {
				return b
			}
			return lower + (b-lower)*(rank-below)/(c-below)
		}
		lower, below = b, c
	}
	return lower
}

// inLayer keeps series whose method label belongs to protocol layer tag.
func inLayer(tag string) func(map[string]string) bool {
	return func(l map[string]string) bool { return simnet.LayerOf(l["method"]) == tag }
}

// liveLayers turns the /metrics deltas of every process in a traced
// live run into the per-layer RPC table, normalised per delivered job.
func liveLayers(d scrape, jobs int) map[string]float64 {
	m := map[string]float64{}
	for _, tag := range layerTags {
		keep := inLayer(tag)
		m["layer."+tag+".calls_per_job"] = perJob(d.sum("rpc_server_calls_total", keep), jobs)
		m["layer."+tag+".client_p50_ms"] = 1e3 * d.histQuantile("rpc_client_seconds", 0.5, keep)
		m["layer."+tag+".server_p50_ms"] = 1e3 * d.histQuantile("rpc_server_seconds", 0.5, keep)
	}
	out := func(l map[string]string) bool { return l["dir"] == "out" }
	calls := d.sum("rpc_client_seconds_count", nil)
	m["nettransport.bytes_per_job"] = perJob(d.sum("rpc_bytes_total", out), jobs)
	m["nettransport.calls_per_job"] = perJob(d.sum("rpc_client_calls_total", nil), jobs)
	if calls > 0 {
		m["nettransport.overhead_ms"] = 1e3 * (d.sum("rpc_client_seconds_sum", nil) - d.sum("rpc_server_seconds_sum", nil)) / calls
	} else {
		m["nettransport.overhead_ms"] = 0
	}
	histMean := func(family string) float64 {
		n := d.sum(family+"_count", nil)
		if n == 0 {
			return 0
		}
		return d.sum(family+"_sum", nil) / n
	}
	m["match.msgs_per_match"] = histMean("grid_inject_hops") + histMean("grid_match_hops")
	m["match.visits_per_match"] = histMean("grid_match_visits")
	kind := func(k string) float64 {
		return d.sum("grid_events_total", func(l map[string]string) bool { return l["kind"] == k })
	}
	m["grid.match_failed"] = kind("match-failed")
	m["grid.resubmits"] = kind("resubmitted")
	m["grid.promotions"] = kind("promoted")
	m["grid.checkpoints"] = kind("checkpointed")
	m["grid.status_rpcs"] = d.sum("rpc_server_calls_total", func(l map[string]string) bool { return l["method"] == "grid.status" })
	return m
}
