// Command gridnode runs one live desktop-grid peer over TCP: it joins
// (or creates) the overlay, advertises its resources, and runs jobs
// submitted by any client (see cmd/gridctl). Jobs execute in a sandbox
// as synthetic CPU work sized by the job profile.
//
// Start a first node, then join more:
//
//	gridnode -listen 127.0.0.1:7001
//	gridnode -listen 127.0.0.1:7002 -bootstrap 127.0.0.1:7001 -cpu 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/nettransport"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/resource"
	"repro/internal/sandbox"
	"repro/internal/transport"
	"repro/internal/trust"
	"repro/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "TCP listen address")
	bootstrap := flag.String("bootstrap", "", "address of an existing node ('' = create a new grid)")
	cpu := flag.Float64("cpu", 5, "advertised CPU speed (1-10)")
	mem := flag.Float64("mem", 4096, "advertised memory (MB)")
	disk := flag.Float64("disk", 100, "advertised disk (GB)")
	osname := flag.String("os", "linux", "advertised operating system")
	replicas := flag.Int("replicas", 1, "redundant executions per owned job (1 = no voting)")
	quorum := flag.Int("quorum", 1, "matching result digests required to accept")
	probeEvery := flag.Duration("probe-every", 0, "known-answer probe interval for blacklisted peers (0 = off)")
	notify := flag.Bool("notify", false, "publish job-state transitions over the DHT pub/sub overlay (clients subscribe at submit; see 'gridctl watch')")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address for /metrics, /events, /debug/pprof ('' = off)")
	transportMode := flag.String("transport", "pooled", "outbound call path: pooled (persistent framed conns) or perdial (one conn per call; benchmarking baseline)")
	ownerCap := flag.Int("owner-cap", 0, "bound on jobs this node will own at once; beyond it injections are rejected with a retry-after hint (0 = unbounded)")
	chaosSpec := flag.String("chaos", "", "deterministic outbound fault schedule, e.g. 'method=grid.assign reset=0.1; stall=0.2:300ms' (DESIGN.md §12; '' = off)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the -chaos schedule; same seed, same rules => same fault sequence")
	chaosLog := flag.String("chaos-log", "", "append one 'peer method seq fate' line per chaos decision to this file ('' = off)")
	flag.Parse()

	var topts nettransport.Opts
	switch *transportMode {
	case "pooled":
	case "perdial":
		topts.PerDial = true
	default:
		fmt.Fprintf(os.Stderr, "gridnode: unknown -transport %q (pooled|perdial)\n", *transportMode)
		os.Exit(2)
	}
	if *chaosSpec != "" {
		rules, err := nettransport.ParseRules(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridnode: -chaos: %v\n", err)
			os.Exit(2)
		}
		cz := nettransport.NewChaos(*chaosSeed, rules...)
		if *chaosLog != "" {
			f, err := os.OpenFile(*chaosLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridnode: -chaos-log: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			cz.SetLog(f)
		}
		topts.Chaos = cz
		fmt.Printf("gridnode: chaos on (seed %d, %d rules)\n", *chaosSeed, len(rules))
	}

	wire.RegisterAll()
	host, err := nettransport.ListenOpts(*listen, topts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridnode: %v\n", err)
		os.Exit(1)
	}
	defer host.Close()
	caps := resource.Vector{*cpu, *mem, *disk}

	// One obs sink spans every layer of this process; nil disables all
	// instrumentation (every instrument is nil-safe).
	var o *obs.Obs
	if *metricsAddr != "" {
		o = obs.New()
		host.SetObs(o)
		srv, bound, err := obs.Serve(*metricsAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridnode: metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("gridnode: metrics at http://%s/metrics (events at /events, profiles at /debug/pprof)\n", bound)
	}

	cfg := peer.Live(caps, *osname)
	cfg.Chord.Obs = o
	cfg.RNTree.Obs = o
	// Voting implies reputation: the owner scores replicas against each
	// accepted digest, and matchmaking avoids blacklisted peers. The
	// table is answerable over grid.trust (gridctl trust).
	if *replicas > 1 || *quorum > 1 {
		cfg.Grid.Trust = trust.New(trust.Config{})
	}
	cfg.Recorder = grid.RecorderFunc(func(ev grid.Event) {
		fmt.Printf("%s job=%s attempt=%d node=%s\n", ev.Kind, ev.JobID.Short(), ev.Attempt, ev.Node)
	})
	// Jobs run inside a sandbox (Section 5 of the paper): private
	// filesystem root, no network, output quota, bounded runtime. The
	// work itself is synthetic (the profile's nominal duration) with the
	// job's input/output sizes materialized as files.
	box := sandbox.New(sandbox.Policy{
		MaxOutputBytes: 64 << 20,
		MaxRuntime:     time.Hour,
	})
	executor := func(prof grid.Profile) (int, error) {
		out, err := box.Run(context.Background(), func(ctx context.Context, env *sandbox.Env) ([]byte, error) {
			if err := env.WriteFile("input.dat", make([]byte, prof.InputKB*1024)); err != nil {
				return nil, err
			}
			select {
			case <-time.After(prof.Work):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			output := make([]byte, (prof.OutputKB+1)*1024)
			if err := env.WriteFile("output.dat", output); err != nil {
				return nil, err
			}
			return output, nil
		})
		if err != nil {
			return 0, err
		}
		return len(out) / 1024, nil
	}
	// The notification broker rides the same Chord ring: topics hash to
	// a rendezvous node found by ordinary lookups, so every peer runs a
	// broker and owners publish to whichever rendezvous a job's topic
	// maps to (DESIGN.md §13).
	cfg.Notify = *notify
	cfg.Grid.Executor = executor
	cfg.Grid.Replicas = *replicas
	cfg.Grid.Quorum = *quorum
	cfg.Grid.ProbeEvery = *probeEvery
	cfg.Grid.OwnerCapacity = *ownerCap
	cfg.Grid.Obs = o
	// Transport health feeds graceful degradation (breaker-open peers
	// demoted in matchmaking and probing) and grid.health.
	cfg.Grid.PeerDown = host.PeerDown
	cfg.Grid.Health = host.Health
	p := peer.New(host, cfg)

	if *bootstrap == "" {
		p.Create()
		fmt.Printf("gridnode: created grid at %s (id %s)\n", host.Addr(), p.Chord.ID().Short())
	} else {
		joined := make(chan error, 1)
		host.Go("join", func(rt transport.Runtime) { joined <- p.Join(rt, transport.Addr(*bootstrap)) })
		if err := <-joined; err != nil {
			fmt.Fprintf(os.Stderr, "gridnode: join: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("gridnode: joined via %s as %s (id %s)\n", *bootstrap, host.Addr(), p.Chord.ID().Short())
	}
	p.Start(true)
	if p.Broker != nil {
		fmt.Println("gridnode: pub/sub notifications on (topics rendezvous on the ring)")
	}

	fmt.Printf("gridnode: caps=%s os=%s; ctrl-c to stop\n", caps, *osname)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("gridnode: shutting down")
}
