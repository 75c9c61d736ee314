package sim

import (
	"testing"
	"time"
)

// The allocation guards below hold the kernel's per-operation cost with
// tracing off. They fail if a proc's random stream is built eagerly
// again, or if trace arguments are boxed while Engine.Trace is nil.

// TestSleepRoundTripAllocs bounds one Sleep: schedule the wake event,
// park, deliver the wake, resume.
func TestSleepRoundTripAllocs(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	e.RunFor(0)
	got := testing.AllocsPerRun(200, func() { e.RunFor(time.Second) })
	e.Shutdown()
	// The wake event and the closure that delivers it.
	const want = 2
	if got > want {
		t.Fatalf("Sleep round trip: %v allocs, want <= %d", got, want)
	}
}

// TestSpawnExitAllocs bounds the life of a proc that never calls Rand:
// spawn, start, exit.
func TestSpawnExitAllocs(t *testing.T) {
	e := NewEngine(1)
	got := testing.AllocsPerRun(200, func() {
		e.Spawn("handler", func(*Proc) {})
		e.Run()
	})
	// The Proc, its wake channel, the start event, the start event's
	// closure and the goroutine's start closure.
	const want = 5
	if got > want {
		t.Fatalf("spawn/exit: %v allocs, want <= %d", got, want)
	}
}
