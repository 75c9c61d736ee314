package peer_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/peer"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simhost"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// eventLog records every grid event in arrival order (the simulator
// runs one proc at a time, so no lock is needed).
type eventLog struct{ evs []grid.Event }

func (l *eventLog) Record(ev grid.Event) { l.evs = append(l.evs, ev) }

const (
	runners = 4
	jobs    = 8
	minCPU  = 8 // only the last runner (CPU 9) satisfies it
)

func runnerCaps(i int) resource.Vector { return resource.Vector{float64(3 + 2*i), 2048, 50} }

// liveGrid boots, on the simulator, the peers a live deployment runs:
// four runners joined through the live retry path and a gridctl-style
// client peer with near-zero caps. It submits jobs from the client,
// every third one CPU-constrained, and returns the peers, the event
// log and the constrained jobs' attempt-0 IDs.
func liveGrid(t *testing.T, seed int64) ([]*peer.Peer, *eventLog, map[ids.ID]bool) {
	t.Helper()
	e := sim.NewEngine(seed)
	t.Cleanup(e.Shutdown)
	net := simnet.New(e)
	net.Latency = simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond}
	log := &eventLog{}
	var peers []*peer.Peer
	for i := 0; i <= runners; i++ {
		caps := resource.Vector{0.1, 1, 1} // the client peer, last
		if i < runners {
			caps = runnerCaps(i)
		}
		cfg := peer.Live(caps, "linux")
		cfg.Recorder = log
		h := simhost.New(net.NewEndpoint(simnet.Addr(fmt.Sprintf("p%d", i))))
		peers = append(peers, peer.New(h, cfg))
	}
	peers[0].Create()
	joinErr := make([]error, len(peers))
	for i := 1; i < len(peers); i++ {
		i := i
		peers[i].Host.Go("join", func(rt transport.Runtime) {
			joinErr[i] = peers[i].Join(rt, peers[0].Host.Addr())
		})
	}
	e.RunFor(5 * time.Second)
	for i, err := range joinErr {
		if err != nil {
			t.Fatalf("peer %d join: %v", i, err)
		}
	}
	for _, p := range peers {
		p.Start(true)
	}
	client := peers[runners]
	client.Grid.StartClientMonitor(5 * time.Second)
	e.RunFor(10 * time.Second) // ring + tree convergence

	constrained := map[ids.ID]bool{}
	lost := -1
	client.Host.Go("submit", func(rt transport.Runtime) {
		for j := 0; j < jobs; j++ {
			spec := grid.JobSpec{Work: 3 * time.Second, Cons: resource.Unconstrained.Require(resource.CPU, 1)}
			if j%3 == 0 {
				spec.Cons = resource.Unconstrained.Require(resource.CPU, minCPU)
			}
			id, err := client.Grid.Submit(rt, spec)
			if err != nil {
				t.Errorf("submit %d: %v", j, err)
			}
			if j%3 == 0 {
				constrained[id] = true
			}
		}
		lost = client.Grid.AwaitAll(rt, rt.Now()+10*time.Minute)
	})
	for lost < 0 {
		e.RunFor(10 * time.Second)
	}
	if lost != 0 {
		t.Fatalf("%d jobs never delivered", lost)
	}
	return peers, log, constrained
}

func TestLivePeersOnSimulator(t *testing.T) {
	peers, log, constrained := liveGrid(t, 7)
	client := peers[runners].Host.Addr()

	// Every lineage (client, seq) ends in exactly one delivery; a
	// resubmission mints attempt a's GUID for the same seq.
	lineage := map[ids.ID]int{}
	for seq := 1; seq <= jobs; seq++ {
		for a := 0; a < 8; a++ {
			lineage[grid.JobGUID(client, seq, a)] = seq
		}
	}
	delivered := map[int]int{}
	capsOf := map[transport.Addr]resource.Vector{}
	for i, p := range peers[:runners] {
		capsOf[p.Host.Addr()] = runnerCaps(i)
	}
	ranConstrained := 0
	for _, ev := range log.evs {
		switch ev.Kind {
		case grid.EvResultDelivered:
			seq, ok := lineage[ev.JobID]
			if !ok {
				t.Fatalf("delivery of unknown job %s", ev.JobID.Short())
			}
			delivered[seq]++
		case grid.EvStarted:
			if constrained[grid.JobGUID(client, lineage[ev.JobID], 0)] {
				ranConstrained++
				if caps := capsOf[ev.Node]; caps[resource.CPU] < minCPU {
					t.Errorf("CPU>=%d job %s ran on %s with caps %v", minCPU, ev.JobID.Short(), ev.Node, caps)
				}
			}
		}
	}
	for seq := 1; seq <= jobs; seq++ {
		if delivered[seq] != 1 {
			t.Errorf("lineage %d delivered %d times, want exactly once", seq, delivered[seq])
		}
	}
	if ranConstrained < len(constrained) {
		t.Errorf("%d starts of %d constrained jobs", ranConstrained, len(constrained))
	}

	// Start launched the RN-Tree aggregation loop on every peer, so all
	// but the tree's root found a parent.
	roots := 0
	for _, p := range peers {
		if p.RN.Parent().IsZero() {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("%d peers without an RN-Tree parent, want only the root", roots)
	}
}

func TestLivePeersReplay(t *testing.T) {
	digest := func() string {
		_, log, _ := liveGrid(t, 11)
		var b strings.Builder
		for _, ev := range log.evs {
			fmt.Fprintf(&b, "%d %v %s a%d %s\n", ev.At, ev.Kind, ev.JobID.Short(), ev.Attempt, ev.Node)
		}
		return b.String()
	}
	first, second := digest(), digest()
	if first != second {
		t.Fatal("same seed produced different event logs")
	}
	if first == "" {
		t.Fatal("empty event log")
	}
}
