package sim

import (
	"fmt"
	"sync"
	"time"
)

// Sharded is a lock-step parallel discrete-event engine: a control
// Scheduler (the full cooperative-goroutine simulator) plus N worker
// shard lanes, each owning its own event queue (heap + timer wheel).
// Lanes hold only handler-ID events — the high-volume, entity-local
// timer populations (virtual-viewer renewals, evictions, churn) — while
// everything that blocks on virtual time or talks RPC stays on the
// control scheduler.
//
// # Epochs
//
// Time advances in lock-step epochs of a fixed length E. Each epoch
// [T, T+E) runs two phases:
//
//  1. Control phase: the control scheduler executes its events in
//     [T, T+E). Control code deterministically observes every lane's
//     state exactly as of T — no lane event in [T, T+E) has run yet.
//  2. Worker phase: all lanes execute their events in [T, T+E)
//     concurrently, one goroutine per non-idle lane.
//
// Lanes never exchange events, so E is not a causality bound: it is
// the cadence at which control-phase samplers see lane counters (and
// the per-epoch barrier overhead). Epoch boundaries depend only on E
// and the event population — not on the shard count — so a simulation
// whose per-entity behavior is independent of lane placement
// (entity-local RNG streams, commutative counters) produces
// byte-identical results for any number of shards, regardless of
// GOMAXPROCS or OS scheduling. internal/exp's scenarios are built on
// that discipline and pin it with golden fingerprints.
//
// # Contract
//
// Lane events must touch only state owned by their lane; control reads
// lane state only through commutative counters at phase boundaries.
// Scheduling into a lane from outside is allowed only before Run starts
// (setup); during a run new lane events may originate only from that
// lane's own callbacks. Timer wheels make lane scheduling and
// cancellation O(1), so million-timer lanes cost what the serial engine
// pays, minus the shared-heap contention.
type Sharded struct {
	ctrl    *Scheduler
	shards  []*Shard
	epoch   int64 // epoch length E in ns
	running bool
}

// NewSharded creates an engine with n worker lanes advancing in epochs
// of the given length, which must be positive when n > 0.
func NewSharded(start time.Time, seed int64, n int, epoch time.Duration) *Sharded {
	if n < 0 {
		panic("sim: negative shard count")
	}
	if n > 0 && epoch <= 0 {
		panic("sim: sharded engine needs a positive epoch length")
	}
	e := &Sharded{
		ctrl:  New(start, seed),
		epoch: int64(epoch),
	}
	e.shards = make([]*Shard, n)
	startKey := start.UnixNano()
	for i := range e.shards {
		sh := &Shard{eng: e, id: i, nowKey: startKey}
		sh.q.init(startKey)
		e.shards[i] = sh
	}
	return e
}

// Ctrl returns the control scheduler. Protocol nodes, simnet, samplers,
// and anything using goroutines/Waiters lives here.
func (e *Sharded) Ctrl() *Scheduler { return e.ctrl }

// NumShards reports the number of worker lanes.
func (e *Sharded) NumShards() int { return len(e.shards) }

// Shard returns lane i.
func (e *Sharded) Shard(i int) *Shard { return e.shards[i] }

// Pending totals live events across the control scheduler and every
// lane. It must only be called from the control phase or outside Run
// (lane queues are unsynchronized while the worker phase runs).
func (e *Sharded) Pending() int {
	total := e.ctrl.Pending()
	for _, sh := range e.shards {
		total += sh.q.pending()
	}
	return total
}

// Run executes the epoch loop until no work remains at or before the
// deadline. Like Scheduler.RunUntil it is inclusive of the deadline and
// leaves clocks at the last fired event. Epochs fast-forward over idle
// stretches, and when every lane is drained the control scheduler runs
// the remainder in a single span, so a lane-free Sharded run costs the
// same as the serial engine.
func (e *Sharded) Run(until time.Time) {
	endKey := until.UnixNano()
	e.running = true
	defer func() { e.running = false }()
	for {
		bound, ok := e.earliestWork()
		if !ok || bound > endKey {
			break
		}
		next := bound + e.epoch
		if e.lanesIdle() {
			// No lane events exist and none can appear (lane events only
			// originate from lanes): the epoch constraint is vacuous.
			next = endKey + 1
		} else if next <= bound || next > endKey+1 {
			next = endKey + 1
		}
		e.ctrl.RunUntil(time.Unix(0, next-1).UTC())
		e.runLanes(next - 1)
	}
}

// earliestWork lower-bounds the key of the next live event anywhere.
// Lanes whose queues hold only dead (cancelled) events are ignored —
// they have nothing to execute, and counting their tombstones would
// stall the epoch cursor on keys no run phase will ever consume.
func (e *Sharded) earliestWork() (int64, bool) {
	bound, ok := e.ctrl.earliestKey()
	if !ok {
		bound = noLimit
	}
	for _, sh := range e.shards {
		if sh.q.pending() == 0 {
			continue
		}
		if b := sh.q.earliestBound(); b < bound {
			bound = b
		}
	}
	return bound, bound != noLimit
}

func (e *Sharded) lanesIdle() bool {
	for _, sh := range e.shards {
		if sh.q.pending() > 0 {
			return false
		}
	}
	return true
}

// runLanes executes the worker phase: every lane with work runs its
// events with key <= limit on its own goroutine. A panic in a lane
// callback is re-raised on the engine goroutine after the barrier.
func (e *Sharded) runLanes(limit int64) {
	if len(e.shards) == 1 {
		e.shards[0].runThrough(limit)
		return
	}
	var (
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for _, sh := range e.shards {
		if sh.q.pending() == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			sh.runThrough(limit)
		}(sh)
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// Shard is one worker lane: an event queue advanced in epochs by the
// engine, plus the lane's handler table. Lane events carry a handler ID
// and a uint64 argument rather than a closure, so a pending lane event
// holds no pointer and a million-timer lane costs the garbage collector
// nothing to scan. All methods are unsynchronized — see the Sharded
// contract for who may call what when.
type Shard struct {
	eng       *Sharded
	id        int
	nowKey    int64
	q         equeue
	handlers  []func(uint64)
	executing bool
}

// Pending reports the lane's live event count. Control-phase/setup only.
func (sh *Shard) Pending() int { return sh.q.pending() }

func (sh *Shard) checkSchedule() {
	if sh.eng.running && !sh.executing {
		panic(fmt.Sprintf("sim: scheduling into shard %d from outside its worker phase", sh.id))
	}
}

// Handler registers fn on the lane and returns its ID for AtH/AfterH.
// Register each handler once (typically a method value bound to the
// lane's entity table) and name the entity by the uint64 argument.
func (sh *Shard) Handler(fn func(uint64)) int32 {
	sh.checkSchedule()
	sh.handlers = append(sh.handlers, fn)
	return int32(len(sh.handlers) - 1)
}

// AtH schedules handler h with arg on the lane at virtual time at (or
// the lane clock, whichever is later).
func (sh *Shard) AtH(at time.Time, h int32, arg uint64) ShardTimer {
	sh.checkSchedule()
	key := at.UnixNano()
	if key < sh.nowKey {
		key = sh.nowKey
	}
	i := sh.q.schedule(key)
	ev := sh.q.ev(i)
	ev.h, ev.arg = h, arg
	return ShardTimer{sh: sh, idx: i, seq: ev.seq}
}

// AfterH schedules handler h with arg to run d after the lane clock.
func (sh *Shard) AfterH(d time.Duration, h int32, arg uint64) ShardTimer {
	if d < 0 {
		d = 0
	}
	return sh.AtH(time.Unix(0, sh.nowKey+int64(d)).UTC(), h, arg)
}

// runThrough executes lane events with key <= limit in (key, seq) order.
func (sh *Shard) runThrough(limit int64) {
	sh.executing = true
	for {
		i := sh.q.popThrough(limit)
		if i == noEvent {
			break
		}
		ev := sh.q.ev(i)
		sh.nowKey = ev.key
		h, arg := ev.h, ev.arg
		sh.q.release(i)
		sh.handlers[h](arg)
	}
	sh.executing = false
}

// ShardTimer cancels a pending lane event, named by slab slot plus seq.
// Stop must be called under the same conditions as scheduling into the
// lane.
type ShardTimer struct {
	sh  *Shard
	idx int32
	seq uint64
}

// Stop cancels the timer, reporting whether it was still pending.
func (t ShardTimer) Stop() bool {
	return t.sh != nil && t.sh.q.cancel(t.idx, t.seq)
}
