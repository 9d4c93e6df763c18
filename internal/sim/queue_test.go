package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// residentLocked reports how many events (live + dead) currently occupy
// queue storage across both tiers.
func residentLocked(s *Scheduler) int {
	return len(s.q.events) + s.q.wheel.count
}

// TestCancelledWheelTimersBounded pins the cross-tier dead-event purge:
// mass-cancelling wheel-resident timers must reclaim their slots even
// while the heap holds a large live population that keeps the global
// dead fraction low. Before the purge accounting counted both tiers,
// only each tier's own majority triggered compaction, so this exact
// split — dead concentrated in the wheel, live concentrated in the
// heap — is the case a regression would break first.
func TestCancelledWheelTimersBounded(t *testing.T) {
	s := New(t0, 1)

	// A live heap population: beyond-horizon sentinels live in the heap's
	// long-range overflow tier and never migrate to the wheel.
	const liveHeap = 1000
	for i := 0; i < liveHeap; i++ {
		s.At(t0.Add(365*24*time.Hour+time.Duration(i)*time.Second), func() {})
	}

	// Churn: schedule minutes-scale timers (wheel level 1) and cancel
	// them immediately.
	const churn = 50000
	for i := 0; i < churn; i++ {
		tm := s.After(10*time.Minute+time.Duration(i)*time.Millisecond, func() {
			t.Error("cancelled wheel timer fired")
		})
		if !tm.Stop() {
			t.Fatalf("Stop() = false for live timer %d", i)
		}
	}

	s.mu.Lock()
	resident := residentLocked(s)
	wheelDead := s.q.wheel.dead
	s.mu.Unlock()

	// Dead events may linger up to one purge trigger's worth past the
	// live population; anything near churn means cancelled wheel timers
	// are not being reclaimed.
	if bound := liveHeap + 2*purgeFloor + 16; resident > bound {
		t.Fatalf("queue holds %d events (%d wheel-dead) after %d cancelled wheel timers; want <= %d",
			resident, wheelDead, churn, bound)
	}
	if got := s.Pending(); got != liveHeap {
		t.Fatalf("Pending() = %d; want %d (cancelled wheel timers must not count)", got, liveHeap)
	}
}

// TestCancelledTimersSplitAcrossTiers drives cancellation churn through
// both tiers at once — sub-tick delays land in the heap, minute-scale
// delays in the wheel — and checks the combined floor: neither tier's
// dead count alone may reach the old per-tier purge floor while the
// total keeps growing.
func TestCancelledTimersSplitAcrossTiers(t *testing.T) {
	s := New(t0, 2)
	const rounds = 30000
	for i := 0; i < rounds; i++ {
		var tm Timer
		if i%2 == 0 {
			tm = s.After(time.Duration(1+i%100)*time.Microsecond, func() {}) // sub-tick: heap
		} else {
			tm = s.After(time.Hour+time.Duration(i)*time.Millisecond, func() {}) // wheel
		}
		tm.Stop()
	}
	s.mu.Lock()
	resident := residentLocked(s)
	heapDead, wheelDead := s.q.dead, s.q.wheel.dead
	s.mu.Unlock()
	if bound := 2*purgeFloor + 16; resident > bound {
		t.Fatalf("queue holds %d events (heap dead %d, wheel dead %d) after %d split cancels; want <= %d",
			resident, heapDead, wheelDead, rounds, bound)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after cancelling everything; want 0", got)
	}

	// The queue must still fire live work correctly after heavy purging.
	fired := 0
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i+1)*time.Minute, func() { fired++ })
	}
	s.RunUntil(t0.Add(2 * time.Hour))
	if fired != 64 {
		t.Fatalf("fired %d of 64 live timers after purge churn", fired)
	}
}

// refQueue is the naive model the differential test checks equeue
// against: every live event in a slice sorted by (key, seq).
type refQueue struct {
	live []heapEnt // sorted by (key, seq); idx is the slab slot
}

func (r *refQueue) find(key int64, seq uint64) int {
	return sort.Search(len(r.live), func(i int) bool {
		return !entLess(r.live[i], heapEnt{key: key, seq: seq})
	})
}

func (r *refQueue) add(e heapEnt) {
	i := r.find(e.key, e.seq)
	r.live = append(r.live, heapEnt{})
	copy(r.live[i+1:], r.live[i:])
	r.live[i] = e
}

func (r *refQueue) remove(key int64, seq uint64) bool {
	i := r.find(key, seq)
	if i == len(r.live) || r.live[i].seq != seq {
		return false
	}
	r.live = append(r.live[:i], r.live[i+1:]...)
	return true
}

// TestQueueMatchesSortedReference drives equeue with a random mix of
// schedules, Stops and fires and checks every step against refQueue:
// fire order, Stop results (including Stops through stale handles whose
// slot was since reused), Pending and the earliestBound lower bound.
// Delays cover the due-now heap band, every wheel level, exact band
// boundaries and the beyond-horizon overflow; cancel-heavy stretches
// cross the purge thresholds of both tiers.
func TestQueueMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var q equeue
	now := t0.UnixNano()
	q.init(now)
	var ref refQueue

	type handle struct {
		idx int32
		key int64
		seq uint64
	}
	var handles []handle
	keyOf := map[uint64]int64{} // seq -> key for every event ever scheduled

	delay := func() int64 {
		switch c := rng.Intn(8); c {
		case 0:
			return rng.Int63n(2) // due now
		case 1:
			return rng.Int63n(1 << wheelTickBits) // sub-tick: heap
		case 2, 3, 4:
			lvl := wheelGeometry[c-2]
			return rng.Int63n(1 << (lvl.lowBit + lvl.bits)) // up to level c-2's span
		case 5:
			// Exactly on a band boundary of a random level.
			lvl := wheelGeometry[rng.Intn(wheelLevels)]
			band := (now>>lvl.lowBit + 1 + rng.Int63n(8)) << lvl.lowBit
			return band - now
		case 6:
			return 1<<wheelHorizonBit + rng.Int63n(1<<wheelHorizonBit) // beyond the horizon
		default:
			return rng.Int63n(int64(10 * time.Second))
		}
	}

	var (
		fired, staleReused, stops int
		heapPurges, wheelPurges   int
		levelsHit                 [wheelLevels + 2]int // due-now heap, levels, overflow
	)
	const steps = 150_000
	for step := 0; step < steps; step++ {
		// Alternate fill, cancel-heavy and drain stretches so dead
		// events pile past the purge floor in both tiers.
		var pSched, pStop int
		switch (step / 5000) % 3 {
		case 0:
			pSched, pStop = 70, 20
		case 1:
			pSched, pStop = 45, 50
		default:
			pSched, pStop = 20, 20
		}
		switch r := rng.Intn(100); {
		case r < pSched:
			key := now + delay()
			switch lvl := q.wheel.levelFor(key); {
			case lvl >= 0:
				levelsHit[lvl+1]++
			case key-q.wheel.cur < 1<<wheelTickBits:
				levelsHit[0]++
			default:
				levelsHit[wheelLevels+1]++
			}
			i := q.schedule(key)
			ev := *q.ev(i)
			if ev.key != key {
				t.Fatalf("step %d: scheduled key %d, slab holds %d", step, key, ev.key)
			}
			handles = append(handles, handle{i, key, ev.seq})
			keyOf[ev.seq] = key
			ref.add(heapEnt{key: key, seq: ev.seq, idx: i})
		case r < pSched+pStop && len(handles) > 0:
			// A live event, a recent handle, or any handle ever issued
			// (most of those are stale, many on a reused slot).
			var h handle
			switch c := rng.Intn(10); {
			case c < 5 && len(ref.live) > 0:
				e := ref.live[rng.Intn(len(ref.live))]
				h = handle{e.idx, e.key, e.seq}
			case c < 8:
				h = handles[len(handles)-1-rng.Intn(min(len(handles), 64))]
			default:
				h = handles[rng.Intn(len(handles))]
			}
			cur := *q.ev(h.idx)
			if cur.seq != h.seq && cur.flags&evLive != 0 {
				staleReused++
			}
			dead0, wdead0 := q.dead, q.wheel.dead
			want := ref.remove(h.key, h.seq)
			if got := q.cancel(h.idx, h.seq); got != want {
				t.Fatalf("step %d: Stop(slot %d, seq %d) = %v; model says %v", step, h.idx, h.seq, got, want)
			}
			if want {
				stops++
				if q.dead < dead0 {
					heapPurges++
				}
				if q.wheel.dead < wdead0 {
					wheelPurges++
				}
			}
		default:
			// Rarely fire through everything, which reaches the
			// overflow tier; usually fire up to a near-future limit.
			limit := noLimit
			if rng.Intn(1000) > 0 {
				limit = now + delay()%(1<<wheelHorizonBit)
			}
			i := q.popThrough(limit)
			var want *heapEnt
			if len(ref.live) > 0 && ref.live[0].key <= limit {
				want = &ref.live[0]
			}
			switch {
			case i == noEvent && want == nil:
			case i == noEvent:
				t.Fatalf("step %d: pop through %d found nothing; model fires (%d, %d)", step, limit, want.key, want.seq)
			case want == nil:
				t.Fatalf("step %d: pop through %d fired (%d, %d); model has nothing due", step, limit, q.ev(i).key, q.ev(i).seq)
			default:
				ev := *q.ev(i)
				if ev.key != want.key || ev.seq != want.seq || ev.key != keyOf[ev.seq] {
					t.Fatalf("step %d: fired (%d, %d); model fires (%d, %d)", step, ev.key, ev.seq, want.key, want.seq)
				}
				ref.remove(ev.key, ev.seq)
				q.release(i)
				now = ev.key
				fired++
			}
		}
		if got, want := q.pending(), len(ref.live); got != want {
			t.Fatalf("step %d: pending() = %d; model holds %d live events", step, got, want)
		}
		if len(ref.live) > 0 {
			if b := q.earliestBound(); b > ref.live[0].key {
				t.Fatalf("step %d: earliestBound %d overshoots the next live key %d", step, b, ref.live[0].key)
			}
		}
	}
	// Drain: everything left fires in model order.
	for len(ref.live) > 0 {
		i := q.popThrough(noLimit)
		if i == noEvent {
			t.Fatalf("drain: queue empty with %d live events in the model", len(ref.live))
		}
		ev := *q.ev(i)
		if ev.key != ref.live[0].key || ev.seq != ref.live[0].seq {
			t.Fatalf("drain: fired (%d, %d); model fires (%d, %d)", ev.key, ev.seq, ref.live[0].key, ref.live[0].seq)
		}
		ref.live = ref.live[1:]
		q.release(i)
	}
	if i := q.popThrough(noLimit); i != noEvent {
		t.Fatalf("drain: queue fired seq %d after the model emptied", q.ev(i).seq)
	}
	// Every stale handle stays inert once all its slots are free.
	for _, h := range handles {
		if q.cancel(h.idx, h.seq) {
			t.Fatalf("Stop through spent handle (slot %d, seq %d) = true", h.idx, h.seq)
		}
	}
	for tier, n := range levelsHit {
		if n == 0 {
			t.Errorf("no event filed into tier %d (0: due-now heap, 1-%d: wheel levels, %d: overflow)", tier, wheelLevels, wheelLevels+1)
		}
	}
	if staleReused == 0 || heapPurges == 0 || wheelPurges == 0 {
		t.Errorf("coverage: %d Stops through a reused slot, %d heap purges, %d wheel purges; want each > 0",
			staleReused, heapPurges, wheelPurges)
	}
	t.Logf("%d fired, %d stopped, %d stale-on-reused Stops, %d heap / %d wheel purges, tiers %v, slab %d slots",
		fired, stops, staleReused, heapPurges, wheelPurges, levelsHit, q.n)
}

// TestEventStorageHoldsNoPointers pins what makes the queue invisible
// to the garbage collector: slab events, heap entries and wheel slot
// heads contain no pointer, so a million pending timers add nothing to
// scan.
func TestEventStorageHoldsNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return typ.Len() > 0 && hasPointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		default:
			return true
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(equeue{}.chunks).Elem().Elem(),
		reflect.TypeOf(equeue{}.events).Elem(),
		reflect.TypeOf(wlevel{}.slots).Elem(),
		reflect.TypeOf(equeue{}.free).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer; the collector would scan every pending event", typ)
		}
	}
}

// TestLaneSteadyStateAllocsZero pins the lane fast path: once the slab,
// freelist and heap have reached their working size, a renew cycle
// (stop the eviction sentinel, re-arm it, schedule the next renewal)
// allocates nothing, however many events it fires.
func TestLaneSteadyStateAllocsZero(t *testing.T) {
	eng := NewSharded(t0, 1, 1, 10*time.Millisecond)
	lane := eng.Shard(0)
	const viewers = 2000
	evict := make([]ShardTimer, viewers)
	renewals := 0
	var renewH, evictH int32
	renewH = lane.Handler(func(v uint64) {
		renewals++
		evict[v].Stop()
		evict[v] = lane.AfterH(25*time.Second, evictH, v)
		lane.AfterH(10*time.Second, renewH, v)
	})
	evictH = lane.Handler(func(uint64) { t.Error("a renewed viewer was evicted") })
	for v := 0; v < viewers; v++ {
		lane.AfterH(time.Duration(v)*5*time.Millisecond, renewH, uint64(v))
	}
	until := t0
	step := func() {
		until = until.Add(time.Second)
		eng.Run(until)
	}
	for i := 0; i < 120; i++ { // warm-up: two minutes of virtual time
		step()
	}
	before, slab := renewals, lane.q.n
	if allocs := testing.AllocsPerRun(60, step); allocs != 0 {
		t.Fatalf("steady-state lane epoch allocated %.1f times; want 0", allocs)
	}
	// AllocsPerRun rounds down, so a rare amortized slab growth would
	// hide in it: the slab itself must not grow either.
	if got := lane.q.n; got != slab {
		t.Fatalf("slab grew from %d to %d slots in steady state; released slots are not being reused", slab, got)
	}
	if fired := renewals - before; fired < 60*viewers/10 {
		t.Fatalf("only %d renewals fired during the measured minute; want >= %d", fired, 60*viewers/10)
	}
}
