// Package sim provides a deterministic discrete-event simulator with a
// virtual clock and cooperative goroutine scheduling.
//
// The simulator lets ordinary, sequential Go code (protocol state machines,
// clients, servers) run against virtual time: a goroutine started with
// (*Scheduler).Go may call Sleep, wait on Waiters and Queues, and time
// advances instantaneously to the next scheduled event whenever every
// goroutine is parked. A simulated week of protocol traffic therefore runs
// in the CPU time it takes to execute the protocol code itself.
//
// Execution is strictly serialized: at any instant at most one simulated
// goroutine (or the event loop) runs; waking another goroutine appends it
// to a FIFO run queue and the run token is handed over only when the
// current goroutine parks or exits. Determinism for a fixed seed is
// therefore a hard guarantee, independent of GOMAXPROCS, OS scheduling,
// or other simulations running concurrently in the same process.
//
// All blocking inside simulated goroutines MUST go through the scheduler
// primitives (Sleep, Waiter.Wait, Queue.Recv, WaitGroup.Wait). Blocking on
// ordinary Go channels or mutexes held across virtual time would deadlock
// the virtual clock.
package sim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Scheduler owns the virtual clock, the pending event queue, and the run
// token that serializes simulated goroutines.
//
// Events fire in (time, insertion-sequence) order and unparked goroutines
// run in FIFO wake order, so the simulation is deterministic for a fixed
// seed.
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond // the event loop waits here for quiescence
	now     time.Time
	q       equeue    // event slab + heap + timer wheel (see queue.go)
	active  int       // 1 while a simulated goroutine holds the run token
	runq    []*parker // goroutines unparked and awaiting the token, FIFO
	runqOff int       // consumed prefix of runq
	idle    []*worker // parked worker goroutines awaiting a Go/GoArg task
	stopped bool
	rng     *rand.Rand
	rngMu   sync.Mutex
}

// New creates a Scheduler whose clock starts at start and whose random
// stream is derived from seed.
func New(start time.Time, seed int64) *Scheduler {
	s := &Scheduler{
		now: start,
		rng: rand.New(rand.NewSource(seed)),
	}
	s.cond = sync.NewCond(&s.mu)
	s.q.init(start.UnixNano())
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Rand runs fn with the scheduler's seeded random source. The source is
// guarded by its own mutex so simulated goroutines may call it freely.
func (s *Scheduler) Rand(fn func(r *rand.Rand)) {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	fn(s.rng)
}

// Float64 draws from the scheduler's seeded random stream.
func (s *Scheduler) Float64() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64()
}

// Intn draws from the scheduler's seeded random stream.
func (s *Scheduler) Intn(n int) int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Intn(n)
}

// ExpFloat64 draws an exponentially distributed value with mean 1.
func (s *Scheduler) ExpFloat64() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.ExpFloat64()
}

// NormFloat64 draws a standard normal value.
func (s *Scheduler) NormFloat64() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.NormFloat64()
}

// parker is a reusable one-shot wakeup slot. The buffered channel lets
// wake run before block without losing the token, and lets wake be called
// with s.mu held (the send can never block: one wake per park cycle).
type parker struct{ ch chan struct{} }

func (p *parker) wake()  { p.ch <- struct{}{} }
func (p *parker) block() { <-p.ch }

var parkerPool = sync.Pool{New: func() any { return &parker{ch: make(chan struct{}, 1)} }}

func getParker() *parker  { return parkerPool.Get().(*parker) }
func putParker(p *parker) { parkerPool.Put(p) }

// Timer handles a pending event so it can be cancelled. It names the
// event by slab slot plus seq, so a stale Timer cannot cancel the slot's
// next tenant. The zero Timer is inert; Stop on it reports false.
type Timer struct {
	s   *Scheduler
	idx int32
	seq uint64
}

// Stop cancels the timer. It reports whether the event had not yet fired
// or been stopped.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.q.cancel(t.idx, t.seq)
}

// At schedules fn to run at virtual time at (or now, whichever is later).
// fn runs on the scheduler loop; it must not block on virtual time — use Go
// inside fn for anything that sleeps.
func (s *Scheduler) At(at time.Time, fn func()) Timer {
	s.mu.Lock()
	i, pl := s.scheduleLocked(at)
	pl.fn = fn
	t := s.timerLocked(i)
	s.mu.Unlock()
	return t
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	i, pl := s.scheduleLocked(s.now.Add(d))
	pl.fn = fn
	t := s.timerLocked(i)
	s.mu.Unlock()
	return t
}

// AfterArg schedules fn(arg) to run d from now. It exists for hot paths
// (per-message delivery in simnet) where a shared top-level fn plus an
// explicit argument replaces a fresh closure per event.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	i, pl := s.scheduleLocked(s.now.Add(d))
	pl.fnA = fn
	pl.arg = arg
	t := s.timerLocked(i)
	s.mu.Unlock()
	return t
}

func (s *Scheduler) timerLocked(i int32) Timer {
	return Timer{s: s, idx: i, seq: s.q.ev(i).seq}
}

// maxEventTime caps schedulable times at the largest UnixNano-representable
// instant (year 2262); later events are clamped rather than overflowing the
// heap key. Simulations place sentinel events decades out, not centuries.
var maxEventTime = time.Unix(0, math.MaxInt64)

// scheduleLocked files an event at at and returns its slot and payload
// entry; the caller fills in exactly one kind of work before unlocking.
func (s *Scheduler) scheduleLocked(at time.Time) (int32, *payload) {
	if at.Before(s.now) {
		at = s.now
	} else if at.After(maxEventTime) {
		at = maxEventTime
	}
	i := s.q.schedule(at.UnixNano())
	return i, s.q.attach(i)
}

// worker is a pooled OS goroutine that runs simulated-goroutine bodies.
// Spawning a real goroutine (plus its wrapper closure) per Go/GoArg is
// measurable at message rates; a worker instead parks on its own parker
// after each task and is handed the next body directly. The task fields
// are written by the scheduler before the parker wake and read by the
// worker after it, so the channel provides the happens-before edge.
type worker struct {
	s   *Scheduler
	p   *parker
	fn  func()
	fnA func(any)
	arg any
}

// maxIdleWorkers bounds the parked-worker pool; beyond it a finishing
// worker exits instead of idling.
const maxIdleWorkers = 256

func (w *worker) loop() {
	for {
		w.p.block()
		if w.fn != nil {
			fn := w.fn
			w.fn = nil
			fn()
		} else {
			fn, arg := w.fnA, w.arg
			w.fnA, w.arg = nil, nil
			fn(arg)
		}
		s := w.s
		s.mu.Lock()
		s.handoffLocked()
		pooled := !s.stopped && len(s.idle) < maxIdleWorkers
		if pooled {
			s.idle = append(s.idle, w)
		}
		s.mu.Unlock()
		if !pooled {
			putParker(w.p)
			return
		}
	}
}

// spawn queues a task body on a pooled (or fresh) worker. The worker
// joins the run queue behind already runnable goroutines and executes
// once the run token reaches it; the event loop will not advance
// virtual time while any goroutine is runnable.
func (s *Scheduler) spawn(fn func(), fnA func(any), arg any) {
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		w.fn, w.fnA, w.arg = fn, fnA, arg
		s.unparkLocked(w.p)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	w := &worker{s: s, p: getParker(), fn: fn, fnA: fnA, arg: arg}
	go w.loop()
	s.mu.Lock()
	s.unparkLocked(w.p)
	s.mu.Unlock()
}

// Go starts a simulated goroutine.
func (s *Scheduler) Go(fn func()) {
	s.spawn(fn, nil, nil)
}

// GoArg starts a simulated goroutine running fn(arg) — the closure-free
// sibling of Go for hot paths that spawn a goroutine per message.
func (s *Scheduler) GoArg(fn func(any), arg any) {
	s.spawn(nil, fn, arg)
}

// unparkLocked queues p for the run token. The signal matters only when
// the event loop is mid-callback or between loop iterations with no
// token holder; a running goroutine's eventual handoff covers the rest.
func (s *Scheduler) unparkLocked(p *parker) {
	s.runq = append(s.runq, p)
	if s.active == 0 {
		s.cond.Signal()
	}
}

// handoffLocked passes the run token to the next queued goroutine, or
// back to the event loop when none is runnable. Called when the current
// holder parks or exits.
func (s *Scheduler) handoffLocked() {
	if p := s.runqPopLocked(); p != nil {
		p.wake() // token passes directly; active stays 1
		return
	}
	s.active--
	if s.active == 0 {
		s.cond.Signal()
	}
}

func (s *Scheduler) runqPopLocked() *parker {
	if s.runqOff == len(s.runq) {
		return nil
	}
	p := s.runq[s.runqOff]
	s.runq[s.runqOff] = nil
	s.runqOff++
	if s.runqOff == len(s.runq) {
		s.runq = s.runq[:0]
		s.runqOff = 0
	}
	return p
}

func (s *Scheduler) runqLenLocked() int { return len(s.runq) - s.runqOff }

// Sleep blocks the calling simulated goroutine for d of virtual time.
func (s *Scheduler) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p := getParker()
	s.mu.Lock()
	_, pl := s.scheduleLocked(s.now.Add(d))
	pl.p = p
	s.handoffLocked()
	s.mu.Unlock()
	p.block()
	putParker(p)
}

// Run executes events until the queue is empty and all goroutines have
// parked or exited, or until Stop is called.
func (s *Scheduler) Run() {
	s.RunUntil(time.Time{})
}

// RunUntil executes events with at ≤ deadline (zero deadline = no limit)
// until the queue drains or Stop is called. The clock is left at the last
// fired event (it does not jump to the deadline).
func (s *Scheduler) RunUntil(deadline time.Time) {
	deadlineKey := noLimit
	if !deadline.IsZero() {
		deadlineKey = deadline.UnixNano()
	}
	s.mu.Lock()
	for {
		// Quiesce: circulate the run token until every goroutine parks.
		for !s.stopped && (s.active > 0 || s.runqLenLocked() > 0) {
			if s.active == 0 {
				s.active = 1
				s.runqPopLocked().wake()
			}
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		i := s.q.popThrough(deadlineKey)
		if i == noEvent {
			// Queue empty, or the next event is beyond the deadline and
			// stays queued for a later RunUntil call.
			s.mu.Unlock()
			return
		}
		s.now = time.Unix(0, s.q.ev(i).key).UTC()
		pl := s.q.payload[i]
		s.q.release(i)
		switch {
		case pl.p != nil:
			// A Sleep expired: hand the token straight to the sleeper.
			s.active = 1
			pl.p.wake()
		case pl.w != nil:
			// A Waiter timed out (unless a Deliver won the race and this
			// event was already disarmed).
			if w := pl.w; !w.done {
				w.done = true
				w.tev = 0
				s.active = 1
				w.p.wake()
			}
		case pl.fnA != nil:
			s.mu.Unlock()
			pl.fnA(pl.arg)
			s.mu.Lock()
		default:
			s.mu.Unlock()
			pl.fn()
			s.mu.Lock()
		}
	}
}

// Stop aborts Run/RunUntil at the next quiescent point.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Pending reports the number of live scheduled events in O(1).
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.pending()
}

// earliestKey returns a lower bound on the virtual time (as a UnixNano
// key) of the scheduler's next work item: the current time when any
// goroutine is runnable, otherwise the earliest queued event. ok is
// false when the scheduler is fully quiescent with an empty queue.
func (s *Scheduler) earliestKey() (key int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active > 0 || s.runqLenLocked() > 0 {
		return s.now.UnixNano(), true
	}
	b := s.q.earliestBound()
	return b, b != noLimit
}
