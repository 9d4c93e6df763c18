// Command perfbench is the repository benchmark: it drives the
// simulator from outside through its public API on a fixed set of
// workloads, checks the outputs, and prints end-to-end and per-layer
// metrics. See README.md for the workloads, the metrics and how to run
// it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2pdrm/internal/obs"
)

// workload is one benchmark input: a deterministic function of the seed.
type scenario struct {
	name string
	run  func(seed int64, traced bool) (*iteration, error)
}

var workloads = []scenario{
	{"week", runWeek},
	{"flashcrowd", runFlashcrowd},
	{"megascale", runMegascale},
}

// iteration is one run of a workload in a fresh process. Host figures
// (Setup, Run, HeapPeak, GC) vary run to run; Sim must not.
type iteration struct {
	Setup       time.Duration `json:"setup_ns"`
	Run         time.Duration `json:"run_ns"`
	HeapPeak    uint64        `json:"heap_peak_bytes"`
	GCCycles    uint64        `json:"gc_cycles"`
	AllocBytes  uint64        `json:"alloc_bytes"`
	Sim         simSet        `json:"sim"`
	Fingerprint string        `json:"fingerprint,omitempty"`
	Attempted   int           `json:"attempted"`
	Failed      int           `json:"failed"`
	Gates       []string      `json:"gates,omitempty"`
	// Traced holds what only a traced run measures: span-ring figures
	// and the CPU ledger.
	Traced simSet `json:"traced,omitempty"`

	spans *obs.Trace
}

// gate records a failed correctness check.
func (it *iteration) gate(format string, args ...any) {
	it.Gates = append(it.Gates, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: week, flashcrowd or megascale")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: also a traced, profiled run and the per-layer metrics")
	child := fs.Bool("iteration", false, "run one iteration in this process and print it as JSON (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *scenario
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload week|flashcrowd|megascale, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	if *child {
		if err := runIteration(w, *seed, *trace == 1, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	return measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout, stderr)
}

// runIteration runs one iteration in this process and prints it.
func runIteration(w *scenario, seed int64, traced bool, stdout io.Writer) error {
	gomaxprocs()
	runtime.GC()
	gc0 := readGC()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	heap := startHeapSampler(2 * time.Millisecond)
	it, err := w.run(seed, traced)
	peak := heap.Stop()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	gc := readGC().sub(gc0)
	it.HeapPeak, it.GCCycles, it.AllocBytes = peak, gc.cycles, gc.allocBytes
	if traced {
		if it.spans != nil {
			it.Traced = append(it.Traced, spanMetrics(it.spans)...)
		}
		l, err := buildLedger(prof.Bytes())
		if err != nil {
			return err
		}
		it.Traced = append(it.Traced, l.metrics()...)
	}
	return json.NewEncoder(stdout).Encode(it)
}

// spawn runs one iteration in a child process, so every iteration
// starts from an empty heap and leaves nothing behind: parked simulated
// goroutines would otherwise keep each finished deployment reachable.
func spawn(w *scenario, seed int64, traced bool, stderr io.Writer) (*iteration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-iteration", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("iteration process: %w", err)
	}
	it := &iteration{}
	if err := json.Unmarshal(out.Bytes(), it); err != nil {
		return nil, fmt.Errorf("iteration output: %w", err)
	}
	return it, nil
}

// minRuns is the fewest untraced iterations a measurement takes, so a
// median exists even when one iteration outlasts the budget.
const minRuns = 3

// measure runs untraced iterations until the budget is spent (and, when
// traced, one traced iteration after them), applies the correctness
// gates, and prints the report; the last line is the JSON result.
func measure(w *scenario, seed int64, budget time.Duration, traced bool, stdout, stderr io.Writer) int {
	t0 := time.Now()
	var runs []*iteration
	var walls []float64
	reserve := 1.0
	if traced {
		reserve = 2 // leave room for the traced iteration
	}
	for len(runs) < minRuns || time.Since(t0).Seconds()+reserve*median(walls) <= budget.Seconds() {
		start := time.Now()
		it, err := spawn(w, seed, false, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		walls = append(walls, time.Since(start).Seconds())
		runs = append(runs, it)
	}
	var tr *iteration
	if traced {
		var err error
		if tr, err = spawn(w, seed, true, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	r := summarize(w.name, runs, tr)
	r.gomaxprocs = gomaxprocs()
	r.print(stdout, traced)
	if len(r.gates) > 0 {
		return 1
	}
	return 0
}

// report is the summary of one measurement.
type report struct {
	workload   string
	runs       int
	gomaxprocs int
	e2e        []stat // host end-to-end metrics over the untraced runs
	sim        simSet // simulated metrics (identical in every run), then the GC medians
	traced     simSet // traced-run metrics (per-layer only)
	attempted  int
	failed     int
	gates      []string
}

// stat is a host metric over several runs: its median and quartiles.
type stat struct {
	metric
	q1, q3 float64
	values []float64 // one per run, in run order
}

func summarize(name string, runs []*iteration, tr *iteration) *report {
	r := &report{workload: name, runs: len(runs), sim: runs[0].Sim,
		attempted: runs[0].Attempted, failed: runs[0].Failed}
	all := runs
	if tr != nil {
		all = append(append([]*iteration(nil), runs...), tr)
	}
	for i, it := range all {
		for _, g := range it.Gates {
			r.gates = append(r.gates, fmt.Sprintf("run %d: %s", i+1, g))
		}
		if i == 0 {
			continue
		}
		label := fmt.Sprintf("run %d", i+1)
		if it == tr {
			label = "traced run"
		}
		for _, d := range runs[0].Sim.diff(it.Sim) {
			r.gates = append(r.gates, fmt.Sprintf("determinism: %s differs from run 1: %s", label, d))
		}
		if it.Fingerprint != runs[0].Fingerprint {
			r.gates = append(r.gates, fmt.Sprintf("determinism: %s fingerprint %q differs from run 1 %q", label, it.Fingerprint, runs[0].Fingerprint))
		}
		if it.Attempted != r.attempted || it.Failed != r.failed {
			r.gates = append(r.gates, fmt.Sprintf("determinism: %s attempted/failed %d/%d differ from run 1 %d/%d", label, it.Attempted, it.Failed, r.attempted, r.failed))
		}
	}
	for _, m := range r.sim {
		if math.IsInf(m.Value, 1) {
			r.gates = append(r.gates, fmt.Sprintf("%s is +Inf: more than its tail share of %d operations failed", m.Name, m.N))
		}
	}
	host := func(name, unit string, f func(*iteration) float64) stat {
		xs := make([]float64, len(runs))
		for i, it := range runs {
			xs[i] = f(it)
		}
		q1, q3 := quartiles(xs)
		return stat{metric: metric{Name: name, Unit: unit, Value: median(xs), N: len(xs)}, q1: q1, q3: q3, values: xs}
	}
	r.e2e = []stat{
		host("setup_s", "s", func(it *iteration) float64 { return it.Setup.Seconds() }),
		host("run_s", "s", func(it *iteration) float64 { return it.Run.Seconds() }),
		host("heap_peak_mb", "MiB", func(it *iteration) float64 { return float64(it.HeapPeak) / (1 << 20) }),
	}
	gcCycles := host("gc.cycles", "count", func(it *iteration) float64 { return float64(it.GCCycles) })
	allocMB := host("gc.alloc_mb", "MiB", func(it *iteration) float64 { return float64(it.AllocBytes) / (1 << 20) })
	r.sim = append(r.sim[:len(r.sim):len(r.sim)], gcCycles.metric, allocMB.metric)
	if tr != nil {
		r.traced = append(r.traced, tr.Traced...)
		ratio := tr.Run.Seconds() / r.e2e[1].Value
		r.traced = append(r.traced, metric{Name: "obs.traced_run_ratio", Unit: "ratio", Value: ratio, N: len(runs)})
	}
	return r
}

// quartiles are the first and third quartiles of xs, computed as
// Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		m := k * (n + 1)
		j := m / 4
		delta := float64(m%4) / 4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// perLayer is every per-layer metric, in the order BENCHMARK.json lists
// them; a workload that has no value for one reports it as 0 with no
// samples.
var perLayer = func() []metric {
	var out []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{Name: n, Unit: unit})
		}
	}
	add("ms", viewerNames...)
	add("ratio", "fail_frac")
	add("s", ledgerLines...)
	for _, o := range append(append([]string(nil), cryptoOwners...), "other") {
		add("s", o+".crypto_s")
	}
	add("s", "cpu.total_s")
	add("count", "sim.pending_peak", "exp.renewals", "exp.evictions", "exp.churned",
		"simnet.sent", "simnet.delivered", "simnet.dropped",
		"svc.requests", "svc.errors", "svc.shed", "svc.queue_high_water",
		"svc.attempts", "svc.retries", "svc.failures", "svc.overloads",
		"svc.handoffs", "svc.keys_moved",
		"usermgr.login1", "usermgr.login2", "usermgr.wrong_shard")
	for _, wave := range waveNames {
		add("ms", "usermgr.login_p95_ms."+wave)
	}
	add("count", "channelmgr.switch1", "channelmgr.tickets_issued", "channelmgr.denials",
		"p2p.joins_accepted", "p2p.joins_rejected", "p2p.packets_forwarded", "p2p.packets_delivered")
	add("ratio", "p2p.dup_ratio")
	add("count", "p2p.keys_forwarded",
		"client.logins", "client.switches", "client.renewals", "client.restarts", "client.shard_retries")
	for _, s := range stageNames {
		add("ms", "client.stage."+s+"_p95_ms")
	}
	add("ms", "client.first_key_p95_ms")
	add("count", "obs.spans", "obs.spans_dropped")
	add("ratio", "obs.traced_run_ratio")
	add("count", "conform.decrypts", "conform.violations", "gc.cycles")
	add("MiB", "gc.alloc_mb")
	return out
}()

// result is the JSON object on the last line of the output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s: %d untraced runs, GOMAXPROCS %d\n", r.workload, r.runs, r.gomaxprocs)
	fmt.Fprintf(w, "end-to-end, host (median of %d runs [q1, q3]):\n", r.runs)
	for _, s := range r.e2e {
		fmt.Fprintf(w, "  %-20s %12.4f %-5s [%.4f, %.4f] n=%d  runs:", s.Name, s.Value, s.Unit, s.q1, s.q3, s.N)
		for _, v := range s.values {
			fmt.Fprintf(w, " %.4f", v)
		}
		fmt.Fprintln(w)
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "end-to-end, simulated viewer (identical in every run):\n")
	for _, n := range viewerNames {
		m, _ := r.sim.get(n)
		if m.N == 0 {
			fmt.Fprintf(w, "  %-20s %12s %-5s n=0 (not part of this workload)\n", n, "-", "ms")
			continue
		}
		fmt.Fprintf(w, "  %-20s %12.3f %-5s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "  %-20s %12.5f %-5s n=%d (%d failed)\n", "fail_frac", failFrac, "ratio", r.attempted, r.failed)

	got := map[string]metric{}
	for _, m := range r.sim {
		got[m.Name] = m
	}
	for _, m := range r.traced {
		got[m.Name] = m
	}
	got["fail_frac"] = metric{Name: "fail_frac", Unit: "ratio", Value: failFrac, N: r.attempted}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultItem{}}
	if traced {
		known := map[string]bool{}
		fmt.Fprintf(w, "per-layer (counts from every run; *.cpu_s, *.crypto_s and cryptoutil.* from the traced run's CPU profile,\n")
		fmt.Fprintf(w, "  which includes the profiler's own cost, as does obs.traced_run_ratio):\n")
		for _, pl := range perLayer {
			known[pl.Name] = true
			m, ok := got[pl.Name]
			if !ok {
				m = pl
			}
			if m.Unit != pl.Unit {
				r.gates = append(r.gates, fmt.Sprintf("metric %s has unit %s, want %s", pl.Name, m.Unit, pl.Unit))
			}
			fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", pl.Name, m.Value, pl.Unit, m.N)
			res.Metrics[pl.Name] = resultItem{Value: finite(m.Value), Unit: pl.Unit}
		}
		for name := range got {
			if !known[name] {
				r.gates = append(r.gates, fmt.Sprintf("metric %s is measured but not a listed per-layer metric", name))
			}
		}
	} else {
		for _, s := range r.e2e {
			res.Metrics[s.Name] = resultItem{Value: s.Value, Unit: s.Unit}
		}
	}
	sort.Strings(r.gates)
	for _, g := range r.gates {
		fmt.Fprintf(w, "GATE FAILED: %s\n", g)
	}
	res.Correct = len(r.gates) == 0
	b, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite value can fail to encode, and finite() rules
		// that out.
		panic(err)
	}
	fmt.Fprintln(w, strings.TrimSpace(string(b)))
}

// finite maps +Inf (a failed percentile, which also fails a gate) to the
// largest float so the result line stays valid JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
