// Package transport defines the execution and messaging interfaces that
// all protocol code (Chord, CAN, RN-Tree, the grid layer) is written
// against. Two implementations exist: internal/simhost binds protocols
// to the deterministic simulator, and internal/nettransport binds them
// to real TCP sockets. Protocol packages therefore contain no knowledge
// of whether time is virtual or wall-clock.
package transport

import (
	"errors"
	"math/rand"
	"time"
)

// Addr names a host. Under simulation it is a symbolic name ("n042");
// over TCP it is a dialable "host:port".
type Addr string

// Sentinel errors surfaced by Call. Implementations translate their
// native failures into these so protocol code can branch portably.
var (
	ErrTimeout     = errors.New("transport: call timed out")
	ErrUnreachable = errors.New("transport: destination unreachable")
	ErrNoHandler   = errors.New("transport: no handler for method")
	// ErrDown reports a host that is not serving: the local host after
	// Close, or a remote peer that answered a call by declaring itself
	// closed (the live transport's down-peer reply maps here).
	ErrDown = errors.New("transport: host is down")
)

// Transient reports whether err is a delivery-level failure worth
// retrying elsewhere (the peer may be dead, restarting, or partitioned
// away) as opposed to a definitive answer from a live handler. Callers
// use it to classify retry policy: transient errors re-route and
// retry; everything else is the application's to interpret.
func Transient(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrUnreachable) || errors.Is(err, ErrDown)
}

// Handler serves one inbound request. It runs in its own execution
// context (a simulated proc or a real goroutine) and may block.
type Handler func(rt Runtime, from Addr, req any) (any, error)

// Host is one node's attachment to the network: a registry of RPC
// handlers plus the ability to start node-scoped activities. When the
// node crashes (simulation) or shuts down (live), its activities stop.
type Host interface {
	Addr() Addr
	Handle(method string, h Handler)
	// Go starts a named node-scoped activity. fn may block.
	Go(name string, fn func(rt Runtime))
	// Up reports whether the host is currently alive.
	Up() bool
}

// Runtime is the execution context handed to every activity and
// handler: a clock, a private random stream, and blocking RPC.
// Methods must be called only from the activity that owns the Runtime.
type Runtime interface {
	// Now returns elapsed time since the epoch of the underlying clock
	// (simulation start or process start).
	Now() time.Duration
	// Sleep suspends the activity.
	Sleep(d time.Duration)
	// Rand returns the activity's private random stream.
	Rand() *rand.Rand
	// Call performs a blocking RPC with the transport's default timeout.
	Call(to Addr, method string, req any) (any, error)
	// CallT performs a blocking RPC with an explicit timeout.
	CallT(to Addr, method string, req any, timeout time.Duration) (any, error)
}

// PeerHealth is one peer's circuit-breaker snapshot. The live
// transport reports it per called peer (nettransport Host.Health), and
// the grid layer serves it over grid.health; the simulator has no
// breakers and reports none.
type PeerHealth struct {
	Peer        Addr
	State       string        // closed | open | half-open
	ConsecFails int           // consecutive failures while closed
	Failures    int64         // cumulative transport-level failures
	Successes   int64         // cumulative successes
	Opens       int64         // times the circuit opened
	RetryIn     time.Duration // open only: time until the next probe is admitted
}

// ChanWaiter is the optional Runtime extension for waiting on an
// ordinary Go channel. Only runtimes whose clock is wall-clock (the
// live transport) implement it: there, parking on a channel wakes the
// waiter exactly when the producer closes it, with no polling.
// Simulated runtimes deliberately do not implement it — a simulated
// proc may suspend only through its Runtime, or the virtual clock
// stalls — so callers must type-assert and fall back to a bounded
// Sleep poll.
type ChanWaiter interface {
	// AwaitChan blocks until ch is closed (or yields a value).
	AwaitChan(ch <-chan struct{})
}
