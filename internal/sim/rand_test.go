package sim

import (
	"reflect"
	"testing"
	"time"
)

// TestProcStreamsStable pins every random stream a seeded engine hands
// out. Each proc's seed is drawn from the master stream at spawn, in
// spawn order, whether or not the proc ever calls Rand; the golden
// values below must hold however (and whenever) a proc's stream is
// built. Procs that never draw, procs that draw, a proc killed before
// it starts and a proc that spawns children are mixed on purpose.
func TestProcStreamsStable(t *testing.T) {
	e := NewEngine(20070326)
	var got []int64
	draw := func(p *Proc, n int) {
		for i := 0; i < n; i++ {
			got = append(got, p.Rand().Int63n(1_000_000))
		}
	}
	for i := 0; i < 3; i++ {
		e.Spawn("quiet", func(p *Proc) { p.Sleep(time.Second) })
		e.SpawnAfter(time.Duration(i)*time.Millisecond, "drawer", func(p *Proc) {
			draw(p, 2)
			p.Sleep(time.Second)
			draw(p, 1)
		})
	}
	e.Spawn("never-started", func(p *Proc) { draw(p, 1) }).Kill()
	e.SpawnAfter(10*time.Millisecond, "parent", func(p *Proc) {
		draw(p, 1)
		for i := 0; i < 2; i++ {
			p.Spawn("quiet-child", func(*Proc) {})
			p.Spawn("child", func(c *Proc) { draw(c, 2) })
		}
		draw(p, 1)
	})
	e.Run()
	for i := 0; i < 3; i++ {
		got = append(got, e.Rand().Int63n(1_000_000))
	}
	got = append(got, e.NewRand().Int63n(1_000_000))

	// Recorded with every proc stream built eagerly at spawn.
	want := []int64{
		129332, 559959, 882561, 669397, 715367, 359332, 644414, 766564,
		180554, 657419, 561817, 137708, 375044, 758680, 847000, 990598,
		744462, 727873, 577459,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streams moved:\n got %#v\nwant %#v", got, want)
	}
}
