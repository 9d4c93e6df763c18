package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// shardEntity is a lane-pinned actor for the invariance tests: a
// periodic self-rescheduling timer that logs its fire times and, every
// tenth fire, arms a one-shot follow-up on its own lane.
type shardEntity struct {
	id     int
	lane   *Shard
	period time.Duration
	fires  int
	log    []int64 // own fire keys
	ticks  int64   // fires plus follow-ups
}

// shardFixture builds K entities striped over n lanes and runs the
// scenario to end. Entity behavior depends only on the entity's own
// identity, so every per-entity observation must be independent of n.
func shardFixture(t *testing.T, n int, entities int, end time.Time) []*shardEntity {
	t.Helper()
	eng := NewSharded(t0, 7, n, 10*time.Millisecond)
	ents := make([]*shardEntity, entities)
	for i := range ents {
		ents[i] = &shardEntity{
			id:     i,
			lane:   eng.Shard(i % n),
			period: time.Duration(1+i%7) * time.Millisecond,
		}
	}
	// Every lane registers the same handlers in the same order, so the
	// IDs agree across lanes.
	var tickH, followH int32
	follow := func(v uint64) { ents[v].ticks++ }
	tick := func(v uint64) {
		e := ents[v]
		e.fires++
		e.ticks++
		e.log = append(e.log, e.lane.nowKey)
		if e.fires%10 == 0 {
			e.lane.AfterH(time.Duration(1+e.id)*time.Microsecond, followH, v)
		}
		if e.fires < 100 {
			e.lane.AfterH(e.period, tickH, v)
		}
	}
	for i := 0; i < n; i++ {
		tickH = eng.Shard(i).Handler(tick)
		followH = eng.Shard(i).Handler(follow)
	}
	for _, e := range ents {
		e.lane.AtH(t0.Add(e.period), tickH, uint64(e.id))
	}
	eng.Run(end)
	return ents
}

// TestShardedShardCountInvariance pins the engine's core promise: a
// lane-local workload produces identical per-entity observations for
// 1, 2, and 4 shards.
func TestShardedShardCountInvariance(t *testing.T) {
	end := t0.Add(2 * time.Second)
	base := shardFixture(t, 1, 12, end)
	for _, n := range []int{2, 4} {
		got := shardFixture(t, n, 12, end)
		for i, e := range got {
			ref := base[i]
			if !reflect.DeepEqual(e.log, ref.log) {
				t.Fatalf("shards=%d entity %d fire log diverged from shards=1", n, i)
			}
			if e.ticks != ref.ticks {
				t.Fatalf("shards=%d entity %d ticks=%d, shards=1 ticks=%d", n, i, e.ticks, ref.ticks)
			}
		}
	}
}

// TestShardedRunDeterminism pins run-to-run reproducibility at a fixed
// shard count: goroutine interleaving during the worker phase must not
// leak into lane state. Fails under -race on any unsynchronized
// cross-lane access as well.
func TestShardedRunDeterminism(t *testing.T) {
	end := t0.Add(2 * time.Second)
	fingerprint := func() string {
		ents := shardFixture(t, 4, 16, end)
		s := ""
		for _, e := range ents {
			sum := int64(0)
			for _, k := range e.log {
				sum += k
			}
			s += fmt.Sprintf("%d:%d:%d:%d;", e.id, e.fires, e.ticks, sum)
		}
		return s
	}
	a, b := fingerprint(), fingerprint()
	if a != b {
		t.Fatalf("same-config sharded runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestShardedControlPhaseFirst pins the epoch semantics that make
// sampling shard-invariant: a control-phase reader observes lane state
// as of the epoch start, for every shard count.
func TestShardedControlPhaseFirst(t *testing.T) {
	const lookahead = 10 * time.Millisecond
	sample := func(n int) []int64 {
		eng := NewSharded(t0, 1, n, lookahead)
		counters := make([]int64, n)
		var tickH int32
		tick := func(v uint64) {
			counters[v]++
			if counters[v] < 1000 {
				eng.Shard(int(v)).AfterH(time.Millisecond, tickH, v)
			}
		}
		for i := 0; i < n; i++ {
			tickH = eng.Shard(i).Handler(tick)
		}
		for i := 0; i < n; i++ {
			eng.Shard(i).AtH(t0.Add(time.Millisecond), tickH, uint64(i))
		}
		var samples []int64
		var obsTick func()
		next := t0
		obsTick = func() {
			total := int64(0)
			for i := range counters {
				total += counters[i]
			}
			samples = append(samples, total)
			next = next.Add(lookahead)
			if len(samples) < 20 {
				eng.Ctrl().At(next, obsTick)
			}
		}
		next = next.Add(lookahead)
		eng.Ctrl().At(next, obsTick)
		eng.Run(t0.Add(time.Second))
		return samples
	}
	base := sample(1)
	if base[0] != 0 {
		t.Fatalf("first control-phase sample = %d; want 0 (control runs before workers in the epoch)", base[0])
	}
	for _, n := range []int{2, 4} {
		if got := sample(n); !reflect.DeepEqual(got, mulSamples(base, int64(n))) {
			t.Fatalf("shards=%d samples %v; want %v scaled from shards=1 %v", n, got, mulSamples(base, int64(n)), base)
		}
	}
}

func mulSamples(s []int64, k int64) []int64 {
	out := make([]int64, len(s))
	for i, v := range s {
		out[i] = v * k
	}
	return out
}

// TestShardedLaneFreeEquivalence pins the fast path: a Sharded engine
// whose lanes stay empty must behave exactly like the serial Scheduler,
// including goroutines, sleeps, and inclusive deadlines.
func TestShardedLaneFreeEquivalence(t *testing.T) {
	run := func(s *Scheduler, runner func(until time.Time)) []int64 {
		var log []int64
		s.Go(func() {
			for i := 0; i < 50; i++ {
				s.Sleep(time.Duration(1+i%9) * time.Millisecond)
				log = append(log, s.Now().UnixNano())
			}
		})
		s.At(t0.Add(123*time.Millisecond), func() { log = append(log, -s.Now().UnixNano()) })
		runner(t0.Add(200 * time.Millisecond))
		return log
	}
	serial := New(t0, 3)
	want := run(serial, serial.RunUntil)
	eng := NewSharded(t0, 3, 4, 10*time.Millisecond)
	got := run(eng.Ctrl(), eng.Run)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lane-free sharded run diverged from serial:\n%v\nvs\n%v", got, want)
	}
}

// TestShardedTimerStop covers ShardTimer cancellation including
// wheel-resident lane timers, and the scheduling-contract panic.
func TestShardedTimerStop(t *testing.T) {
	eng := NewSharded(t0, 5, 2, 5*time.Millisecond)
	fired := 0
	lane := eng.Shard(0)
	fire := lane.Handler(func(uint64) { fired++ })
	never := lane.Handler(func(uint64) { t.Error("stopped lane timer fired") })
	keep := lane.AfterH(20*time.Millisecond, fire, 0)
	_ = keep
	var cancelled []ShardTimer
	for i := 0; i < 1000; i++ {
		cancelled = append(cancelled, lane.AfterH(time.Minute+time.Duration(i)*time.Millisecond, never, uint64(i)))
	}
	for _, tm := range cancelled {
		if !tm.Stop() {
			t.Fatal("Stop() = false for pending lane timer")
		}
		if tm.Stop() {
			t.Fatal("second Stop() = true")
		}
	}
	if got := eng.Shard(0).Pending(); got != 1 {
		t.Fatalf("lane Pending() = %d after mass cancel; want 1", got)
	}
	eng.Run(t0.Add(time.Hour))
	if fired != 1 {
		t.Fatalf("live lane timer fired %d times; want 1", fired)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("scheduling into a foreign lane mid-run did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "outside its worker phase") {
			t.Fatalf("panic %q is not the scheduling-contract panic", msg)
		}
	}()
	eng2 := NewSharded(t0, 5, 2, 5*time.Millisecond)
	noop1 := eng2.Shard(1).Handler(func(uint64) {})
	cross := eng2.Shard(0).Handler(func(uint64) {
		// Lane 0 callback scheduling into lane 1 violates the contract:
		// lanes never exchange events.
		eng2.Shard(1).AfterH(time.Millisecond, noop1, 0)
	})
	eng2.Shard(0).AtH(t0.Add(time.Millisecond), cross, 0)
	eng2.Run(t0.Add(time.Second))
}

// TestShardedStress is the -race workhorse: many lanes, dense timers,
// cancellations.
func TestShardedStress(t *testing.T) {
	const lanes = 8
	eng := NewSharded(t0, 1234, lanes, 2*time.Millisecond)
	type actor struct {
		lane  *Shard
		n     int
		state uint64
	}
	actors := make([]*actor, 64)
	for i := range actors {
		actors[i] = &actor{lane: eng.Shard(i % lanes), state: uint64(i)}
	}
	var stepH, noopH int32
	step := func(v uint64) {
		a := actors[v]
		a.n++
		a.state = a.state*6364136223846793005 + 1442695040888963407
		if a.state%5 == 0 {
			tm := a.lane.AfterH(time.Duration(1+a.state%100)*time.Millisecond, noopH, v)
			tm.Stop()
		}
		if a.n < 500 {
			a.lane.AfterH(time.Duration(100+a.state%900)*time.Microsecond, stepH, v)
		}
	}
	for i := 0; i < lanes; i++ {
		stepH = eng.Shard(i).Handler(step)
		noopH = eng.Shard(i).Handler(func(uint64) {})
	}
	for i, a := range actors {
		a.lane.AtH(t0.Add(time.Duration(1+a.state%50)*time.Microsecond), stepH, uint64(i))
	}
	eng.Run(t0.Add(10 * time.Second))
	for i, a := range actors {
		if a.n != 500 {
			t.Fatalf("actor %d ran %d of 500 steps", i, a.n)
		}
	}
}
