package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/nettransport"
	"repro/internal/peer"
	"repro/internal/resource"
	"repro/internal/transport"
	"repro/internal/wire"
)

// joinClient joins the grid through bootstrap as a full client peer,
// not a bare RPC client: submissions need the overlay for routing and
// the node's pending map for the client monitor. Near-zero caps keep
// real work off this process. It exits the process if the join fails,
// naming cmd in the message. The caller closes the returned host.
func joinClient(cmd, bootstrap string, topts nettransport.Opts, patience time.Duration, rec grid.Recorder) (*nettransport.Host, *grid.Node) {
	wire.RegisterAll()
	host, err := nettransport.ListenOpts("127.0.0.1:0", topts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %v\n", err)
		os.Exit(1)
	}
	cfg := peer.Live(resource.Vector{0.1, 1, 1}, "linux")
	cfg.Recorder = rec
	cfg.Grid.PeerDown = host.PeerDown
	cfg.Grid.Health = host.Health
	p := peer.New(host, cfg)
	joined := make(chan error, 1)
	host.Go("join", func(rt transport.Runtime) { joined <- p.Join(rt, transport.Addr(bootstrap)) })
	if err := <-joined; err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %s: join via %s: %v\n", cmd, bootstrap, err)
		os.Exit(1)
	}
	p.Start(true)
	p.Grid.StartClientMonitor(patience)
	time.Sleep(2 * time.Second) // ring + tree convergence before submitting
	return host, p.Grid
}

// deliveries is a grid.Recorder counting result deliveries per job and
// resubmissions, for the exactly-once verdict.
type deliveries struct {
	mu        sync.Mutex
	perJob    map[ids.ID]int
	resubmits int
}

func (d *deliveries) Record(ev grid.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch ev.Kind {
	case grid.EvResultDelivered:
		if d.perJob == nil {
			d.perJob = map[ids.ID]int{}
		}
		d.perJob[ev.JobID]++
	case grid.EvResubmitted:
		d.resubmits++
	}
}

// tally returns the jobs delivered at least once, the deliveries
// beyond the first, and the resubmissions.
func (d *deliveries) tally() (delivered, duplicates, resubmits int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.perJob {
		delivered++
		duplicates += c - 1
	}
	return delivered, duplicates, d.resubmits
}
