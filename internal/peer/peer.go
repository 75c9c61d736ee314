// Package peer assembles one desktop-grid peer: the Chord ring node,
// the RN-Tree over it, the grid node that plays every role of the
// paper's Fig. 1 (client, injection node, owner, run node), and
// optionally the pub/sub broker that pushes job-state transitions.
// The simulator (internal/experiments) and every live process
// (cmd/gridnode, cmd/gridctl, examples/livegrid) build peers here, so
// both runtimes run the same wiring on any transport.Host.
package peer

import (
	"fmt"
	"time"

	"repro/internal/chord"
	"repro/internal/grid"
	"repro/internal/ids"
	"repro/internal/match"
	"repro/internal/pubsub"
	"repro/internal/replica"
	"repro/internal/resource"
	"repro/internal/rntree"
	"repro/internal/transport"
)

// Join retry policy: a bootstrap that is itself still starting gets
// ten seconds to answer.
const (
	joinTries = 20
	joinRetry = 500 * time.Millisecond
)

// Config describes one peer.
type Config struct {
	Caps resource.Vector
	OS   string
	// Chord and RNTree configure the overlays. RNTree.K is also the
	// matchmaker's extended-search target, and a negative
	// RNTree.RandomWalkLen disables the placement walk.
	Chord  chord.Config
	RNTree rntree.Config
	// Grid configures the grid node. With ReplicaK > 0 the owner-state
	// replicas (and the broker's subscriber lists) follow the Chord
	// successor list; a Trust table wraps the matchmaker in
	// match.Trusted.
	Grid     grid.Config
	Recorder grid.Recorder
	// Notify runs a pub/sub broker whose topics rendezvous on the ring.
	Notify bool
	// Matcher replaces RN-Tree matchmaking (the simulator's baselines);
	// the peer then builds no RN-Tree and routes without a walk.
	Matcher grid.Matchmaker
}

// Live returns the overlay and heartbeat timing of a TCP peer
// (cmd/gridnode and the gridctl client peers).
func Live(caps resource.Vector, os string) Config {
	return Config{
		Caps:   caps,
		OS:     os,
		Chord:  chord.Config{StabilizeEvery: 500 * time.Millisecond, FixFingersEvery: 500 * time.Millisecond},
		RNTree: rntree.Config{AggregateEvery: time.Second},
		Grid:   grid.Config{HeartbeatEvery: time.Second},
	}
}

// Peer is one assembled peer. RN is nil under a Config.Matcher and
// Broker is nil without Config.Notify.
type Peer struct {
	Host   transport.Host
	Chord  *chord.Node
	RN     *rntree.Node
	Grid   *grid.Node
	Broker *pubsub.Broker
}

// New builds and wires a peer on host. It registers handlers only: no
// activity starts and no randomness is drawn until Join or Start.
func New(host transport.Host, cfg Config) *Peer {
	p := &Peer{Host: host, Chord: chord.New(host, cfg.Chord)}
	ch := p.Chord
	overlay := &match.ChordOverlay{Chord: ch}
	matcher := cfg.Matcher
	if matcher == nil {
		p.RN = rntree.New(host, ch, cfg.Caps, cfg.OS, cfg.RNTree)
		matcher = &match.RNTree{RN: p.RN, K: cfg.RNTree.K}
		if cfg.RNTree.RandomWalkLen >= 0 {
			overlay.Walk = p.RN
		}
	}
	gcfg := cfg.Grid
	if gcfg.ReplicaK > 0 {
		gcfg.ReplicaRing = replica.ChordRing{Node: ch}
	}
	if cfg.Notify {
		pcfg := pubsub.Config{Lookup: p.rendezvous, Obs: gcfg.Obs}
		if gcfg.ReplicaK > 0 {
			pcfg.Ring = replica.ChordRing{Node: ch}
			pcfg.K = gcfg.ReplicaK
		}
		p.Broker = pubsub.New(host, pcfg)
		gcfg.Notify = p.Broker
	}
	if gcfg.Trust != nil {
		matcher = &match.Trusted{Inner: matcher, Table: gcfg.Trust}
	}
	gn := grid.NewNode(host, cfg.Caps, cfg.OS, overlay, matcher, cfg.Recorder, gcfg)
	p.Grid = gn
	if p.RN != nil {
		p.RN.SetLoadFn(gn.QueueLen)
	}
	if p.Broker != nil {
		p.Broker.SetOnEvent(gn.OnNotification)
	}
	ch.SetRingChange(p.ringChange)
	return p
}

// rendezvous resolves a pub/sub topic to the ring node that owns it.
func (p *Peer) rendezvous(rt transport.Runtime, topic ids.ID) (transport.Addr, error) {
	ref, _, err := p.Chord.Lookup(rt, topic)
	return ref.Addr, err
}

// ringChange re-aims replica pushes and subscriber-list replication
// as soon as stabilization moves the ring, instead of at the next
// anti-entropy period. Both kicks are no-ops when not configured.
func (p *Peer) ringChange() {
	p.Grid.ReplicaKick()
	if p.Broker != nil {
		p.Broker.RingChange()
	}
}

// Create makes this peer the first member of a new ring.
func (p *Peer) Create() { p.Chord.Create() }

// Join enters the ring through bootstrap, retrying while the bootstrap
// is unreachable or not yet serving. It returns the last error once
// every try has failed.
func (p *Peer) Join(rt transport.Runtime, bootstrap transport.Addr) error {
	var err error
	for try := 0; try < joinTries; try++ {
		if err = p.Chord.Join(rt, bootstrap); err == nil {
			return nil
		}
		rt.Sleep(joinRetry)
	}
	return fmt.Errorf("peer: %d join tries failed: %w", joinTries, err)
}

// Start launches the grid node's loops, then the broker's, then (with
// overlayLoops) the Chord maintenance and RN-Tree aggregation loops.
// Static simulations skip the overlay loops: their rings are
// warm-started and never change.
func (p *Peer) Start(overlayLoops bool) {
	p.Grid.Start()
	if p.Broker != nil {
		p.Broker.Start()
	}
	if overlayLoops {
		p.Chord.Start()
		if p.RN != nil {
			p.RN.Start()
		}
	}
}

// Restart relaunches the peer after its host came back from a crash:
// the grid node and the broker lose their soft state and restart their
// loops. The overlay loops stay down (their Start is guarded by a
// started flag), so the peer answers overlay RPCs but does not rejoin
// the RN-Tree.
func (p *Peer) Restart() {
	p.Grid.Restart()
	if p.Broker != nil {
		// Replicated subscriber lists recover via push-back.
		p.Broker.Reset()
		p.Broker.Start()
	}
}
