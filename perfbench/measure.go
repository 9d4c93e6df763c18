package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"
)

// latencies collects simulated durations of one kind of user operation
// together with the operations that never completed. A failure counts
// as +Inf in every percentile: it missed any latency limit.
type latencies struct {
	ok     []time.Duration
	failed int
}

func (l *latencies) add(d time.Duration) { l.ok = append(l.ok, d) }
func (l *latencies) fail()               { l.failed++ }

// n is the sample count a percentile is taken over.
func (l *latencies) n() int { return len(l.ok) + l.failed }

// percentileMS is the nearest-rank q-quantile in milliseconds: the
// ceil(q·n)-th smallest sample, where failures sort after every
// success. It is +Inf when that rank lands on a failure and 0 when
// there are no samples at all.
func (l *latencies) percentileMS(q float64) float64 {
	n := l.n()
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.ok) {
		return math.Inf(1)
	}
	s := append([]time.Duration(nil), l.ok...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank-1]) / float64(time.Millisecond)
}

// median is the middle of xs (mean of the middle two for even length).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// firstWrite is an io.Writer that discards what it is given and
// remembers the host instant of its first non-empty write. Handed to a
// scenario as its metrics stream, it splits the scenario's set-up (all
// work before the first metrics row) from its measured window without
// touching the scenario's code.
type firstWrite struct {
	mu  sync.Mutex
	at  time.Time
	now func() time.Time
}

func newFirstWrite(now func() time.Time) *firstWrite { return &firstWrite{now: now} }

func (w *firstWrite) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.at.IsZero() && len(p) > 0 {
		w.at = w.now()
	}
	return len(p), nil
}

// split returns the set-up (start → first write) and run (first write
// → end) durations. ok is false when nothing was ever written.
func (w *firstWrite) split(start, end time.Time) (setup, run time.Duration, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.at.IsZero() {
		return 0, 0, false
	}
	return w.at.Sub(start), end.Sub(w.at), true
}

// heapSampler tracks the peak of live-and-unswept heap object bytes on
// a host ticker, so the simulation under test schedules nothing extra.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes, once the sampling
// goroutine has exited.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// gcStats are runtime/metrics counters read around one iteration.
type gcStats struct {
	cycles     uint64
	allocBytes uint64
}

func readGC() gcStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return gcStats{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{cycles: g.cycles - o.cycles, allocBytes: g.allocBytes - o.allocBytes}
}

// metric is one named, unit-carrying value; N is its sample count where
// the value is a percentile or a ratio of counted operations. Values
// travel between processes as text, so +Inf survives the trip.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

type metricJSON struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Value string `json:"value"`
	N     int    `json:"n,omitempty"`
}

func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(metricJSON{m.Name, m.Unit, strconv.FormatFloat(m.Value, 'g', -1, 64), m.N})
}

func (m *metric) UnmarshalJSON(b []byte) error {
	var j metricJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	v, err := strconv.ParseFloat(j.Value, 64)
	if err != nil {
		return fmt.Errorf("metric %s: %w", j.Name, err)
	}
	*m = metric{j.Name, j.Unit, v, j.N}
	return nil
}

// simSet is the simulated (deterministic for a seed) part of one
// iteration: the viewer metrics and every per-layer count. Two
// iterations of the same seed must produce identical sets.
type simSet []metric

func (s simSet) get(name string) (metric, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// diff lists every metric whose value or sample count differs between
// two sets, including metrics present in only one of them.
func (s simSet) diff(o simSet) []string {
	var out []string
	seen := make(map[string]bool, len(s))
	for _, a := range s {
		seen[a.Name] = true
		b, ok := o.get(a.Name)
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing in second set", a.Name))
			continue
		}
		if a.Value != b.Value || a.N != b.N {
			out = append(out, fmt.Sprintf("%s: %v (n=%d) != %v (n=%d)", a.Name, a.Value, a.N, b.Value, b.N))
		}
	}
	for _, b := range o {
		if !seen[b.Name] {
			out = append(out, fmt.Sprintf("%s: missing in first set", b.Name))
		}
	}
	return out
}

// gomaxprocs caps the Go scheduler at two threads, never above the
// machine's CPU count: the simulator runs one event at a time, so a
// second thread serves GC and the heap sampler, and the cap keeps
// figures comparable between small and large machines.
func gomaxprocs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}
