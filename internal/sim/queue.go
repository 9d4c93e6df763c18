package sim

import "math"

// equeue is the event storage shared by the control Scheduler and the
// worker shards of the Sharded engine: a binary heap for the due-now
// band and long-horizon overflow, fronted by the hierarchical timer
// wheel for everything in between, plus the event slab, its freelist
// and the dead-event (cancelled timer) accounting.
//
// Events live in a slab and are named by their int32 index. The event
// struct holds no pointers, and neither do heap entries nor wheel
// links, so a million pending lane timers are invisible to the garbage
// collector: it scans neither the slab nor the heap. The slab is a list
// of fixed-size chunks that never move: growing it copies nothing,
// each slot is allocated once, and an *event stays valid across later
// schedules. The control Scheduler's pointerful work (a callback, a
// sleeping goroutine or a Waiter) rides in q.payload, a side table
// indexed like the slab that grows only when a payload is attached;
// lane events carry a handler ID and a uint64 argument instead and
// never grow it.
//
// equeue itself is not synchronized. The Scheduler guards its queue
// with s.mu; a Shard's queue is touched only by the shard's worker
// inside an epoch and by the barrier merge between epochs, which are
// ordered by the engine's phase synchronization.
type equeue struct {
	chunks  []*[slabChunk]event // the slab
	n       int32               // slab slots ever handed out
	payload []payload           // control-scheduler work, indexed like the slab
	free    []int32             // released slab slots
	events  []heapEnt           // binary heap: due-now band + long-horizon overflow
	wheel   wheel               // hierarchical timer wheel: near/mid-future events
	dead    int                 // cancelled events still occupying the heap
	seq     uint64
}

// event is one scheduled occurrence, addressed by its slab index. seq
// is unique per scheduled event, so a (slot, seq) handle names exactly
// one event however often the slot is reused. A lane event fires
// handler h with arg; a control event's work is its payload entry.
type event struct {
	key   int64 // due instant as UnixNano: the only time representation
	seq   uint64
	arg   uint64
	h     int32 // lane handler ID
	wnext int32 // intrusive wheel-slot chain link (noEvent ends it)
	flags uint8
}

const (
	evLive    uint8 = 1 << iota // scheduled, not yet fired, released or stopped
	evDead                      // stopped but still resident in heap or wheel
	evInWheel                   // resident in a wheel slot rather than the heap
)

// noEvent is the nil slab index.
const noEvent int32 = -1

// slabChunk is the slab's growth step: 4096 events (160 KiB) per chunk.
const (
	slabChunkBits = 12
	slabChunk     = 1 << slabChunkBits
)

// ev returns slot i of the slab.
func (q *equeue) ev(i int32) *event {
	return &q.chunks[i>>slabChunkBits][i&(slabChunk-1)]
}

// payload is a control event's work. Exactly one of fn, fnA, p, w is
// set: a plain callback, a callback with its argument (saves the
// closure on hot RPC paths), a sleeping goroutine to hand the token to,
// or a Waiter whose timeout this is.
type payload struct {
	fn  func()
	fnA func(any)
	arg any
	p   *parker
	w   *Waiter
}

// purgeFloor is the minimum number of dead events before a compaction is
// considered (small heaps clean themselves up through popThrough).
const purgeFloor = 256

func (q *equeue) init(curKey int64) {
	q.wheel.init(curKey)
}

// schedule files a new event at key into the wheel or, failing that
// (imminent, sub-tick, or beyond the horizon), the heap, and returns
// its slab index.
func (q *equeue) schedule(key int64) int32 {
	var i int32
	if n := len(q.free); n > 0 {
		i = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		i = q.n
		q.n++
		if i&(slabChunk-1) == 0 {
			q.chunks = append(q.chunks, new([slabChunk]event))
		}
	}
	ev := q.ev(i)
	*ev = event{key: key, seq: q.seq, wnext: noEvent, flags: evLive}
	q.seq++
	if !q.wheel.insert(ev, i) {
		q.heapPush(key, ev.seq, i)
	}
	return i
}

// attach returns slot i's payload entry, growing the side table to the
// slab's length on first use. The pointer is valid until the next
// schedule.
func (q *equeue) attach(i int32) *payload {
	if int(i) >= len(q.payload) {
		q.payload = append(q.payload, make([]payload, int(q.n)-len(q.payload))...)
	}
	return &q.payload[i]
}

// release recycles a fired or purged slot, dropping its payload so the
// collector can reclaim whatever the work referenced.
func (q *equeue) release(i int32) {
	q.ev(i).flags = 0
	if int(i) < len(q.payload) {
		q.payload[i] = payload{}
	}
	q.free = append(q.free, i)
}

// cancel stops the event named by (i, seq), reporting whether it was
// still pending. A handle whose slot has since fired, been stopped or
// been reused for a later event finds a different seq or no live flag.
func (q *equeue) cancel(i int32, seq uint64) bool {
	if ev := q.ev(i); ev.seq != seq || ev.flags&evLive == 0 {
		return false
	}
	q.kill(i)
	return true
}

// kill marks a live event dead and triggers compaction when dead events
// dominate. The floor counts dead events across BOTH tiers — a workload
// that cancels wheel-resident timers must reclaim memory even while a
// large live heap population (or vice versa) keeps the global dead
// fraction low, so once past the floor each tier compacts on its own
// dead majority, and a global dead majority sweeps both. The slot is
// reclaimed either here (bulk purge), when a pop skips it (heap), or at
// band drain (wheel).
func (q *equeue) kill(i int32) {
	ev := q.ev(i)
	ev.flags = ev.flags&^evLive | evDead
	inWheel := ev.flags&evInWheel != 0
	if inWheel {
		q.wheel.dead++
	} else {
		q.dead++
	}
	totalDead := q.dead + q.wheel.dead
	if totalDead < purgeFloor {
		return
	}
	if totalDead*2 >= len(q.events)+q.wheel.count {
		q.purge()
		return
	}
	if inWheel {
		if q.wheel.dead*2 >= q.wheel.count {
			q.purgeWheel()
		}
	} else if q.dead*2 >= len(q.events) {
		q.purgeHeap()
	}
}

// purge compacts both tiers, dropping every dead event.
func (q *equeue) purge() {
	if q.wheel.dead > 0 {
		q.purgeWheel()
	}
	if q.dead > 0 {
		q.purgeHeap()
	}
}

// purgeHeap compacts the heap in place, dropping every dead event.
// Without this, week-long runs accrete millions of cancelled RPC-timeout
// timers that would otherwise sit in the heap until their deadline.
func (q *equeue) purgeHeap() {
	live := q.events[:0]
	for _, ent := range q.events {
		if q.ev(ent.idx).flags&evDead != 0 {
			q.release(ent.idx)
		} else {
			live = append(live, ent)
		}
	}
	q.events = live
	q.dead = 0
	for i := len(q.events)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

// pending reports the number of live scheduled events in O(1).
func (q *equeue) pending() int {
	return len(q.events) - q.dead + q.wheel.count - q.wheel.dead
}

// noLimit disables popThrough's deadline check.
const noLimit = int64(math.MaxInt64)

// earliestBound returns a lower bound on the key of the next live event
// (noLimit when the queue holds none). The wheel contributes its
// earliest occupied band's start, not the exact key, so the bound may
// undershoot — never overshoot — which is the conservative direction
// for epoch scheduling.
func (q *equeue) earliestBound() int64 {
	bound := noLimit
	if len(q.events) > 0 {
		bound = q.events[0].key
	}
	if q.wheel.count > 0 {
		if band, _, _, ok := q.wheel.earliest(); ok && band < bound {
			bound = band
		}
	}
	return bound
}

// popThrough returns the slab index of the earliest live event with
// key <= limit, reclaiming any dead events it skips over, or noEvent
// when none qualifies (the queue may still hold later events). Before
// trusting the heap top it drains every wheel band starting at or
// before that key, so heap and wheel events interleave in exact
// (key, seq) order. The caller reads the event and then releases it.
func (q *equeue) popThrough(limit int64) int32 {
	for {
		if q.wheel.count > 0 {
			for {
				band, level, slot, ok := q.wheel.earliest()
				if !ok || band > limit {
					break
				}
				if len(q.events) > 0 && q.events[0].key < band {
					break
				}
				q.wheelDrain(band, level, slot)
			}
		}
		if len(q.events) == 0 || q.events[0].key > limit {
			return noEvent
		}
		i := q.heapPop()
		if q.ev(i).flags&evDead != 0 {
			q.dead--
			q.release(i)
			continue
		}
		return i
	}
}

// --- event heap -----------------------------------------------------------
//
// A hand-rolled binary heap ordered by (key, seq). Entries carry the
// ordering key inline so sifts compare against the flat heap array
// without touching the slab: at wheel-drain populations (thousands of
// entries, tens of KB) the whole sift stays in cache.

type heapEnt struct {
	key int64
	seq uint64
	idx int32
}

func entLess(a, b heapEnt) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *equeue) heapPush(key int64, seq uint64, i int32) {
	q.events = append(q.events, heapEnt{key: key, seq: seq, idx: i})
	q.siftUp(len(q.events) - 1)
}

func (q *equeue) heapPop() int32 {
	h := q.events
	top := h[0].idx
	n := len(h) - 1
	h[0] = h[n]
	q.events = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *equeue) siftUp(i int) {
	h := q.events
	ent := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entLess(ent, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
}

func (q *equeue) siftDown(i int) {
	h := q.events
	n := len(h)
	ent := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && entLess(h[right], h[left]) {
			least = right
		}
		if !entLess(h[least], ent) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = ent
}
