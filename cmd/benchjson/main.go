// Command benchjson runs the repository's crypto hot-path benchmarks and
// records the results as BENCH_<date>.json in the working directory, so
// performance changes leave a comparable artifact next to the code that
// caused them.
//
//	benchjson                   run the default hot-path benchmark set
//	benchjson -bench 'Fig5'     any go-test -bench regexp
//	benchjson -benchtime 2s     forwarded to go test
//	benchjson -out bench.json   explicit output path
//
// The JSON is a flat list of {name, iterations, ns_per_op, bytes_per_op,
// allocs_per_op, mb_per_s} objects plus the environment header go test
// printed (goos/goarch/pkg/cpu).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench covers the amortized-crypto paths and the simulation
// engine hot paths this artifact tracks.
const defaultBench = "BenchmarkSymSealOpen|BenchmarkTicketVerifyCold|BenchmarkTicketVerifyWarm|BenchmarkSectranRoundTrip|BenchmarkSealPacket|BenchmarkOpenPacket" +
	"|BenchmarkSchedulerThroughput|BenchmarkSchedulerFanout|BenchmarkSchedulerSleep|BenchmarkSchedulerTimerStop|BenchmarkSchedulerPending|BenchmarkSimnetRPC|BenchmarkContentFanout|BenchmarkEngineWeekAcceleration|BenchmarkEngineWeekTraced|BenchmarkEngineScaleOut|BenchmarkEngineMegaScale"

// Result is one parsed benchmark line. Extra carries every custom
// b.ReportMetric unit the standard fields don't name — the engine
// benchmarks report e.g. virtual-s/real-s (week acceleration) and
// login-p95-ms / p95-spread (the elastic scale-out sweep's latency
// flatness), and those numbers belong in the artifact too.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the emitted file. GoMaxProcs pins how many OS threads the
// engine benchmarks could actually use, MegaShards is the effective
// lane count BenchmarkEngineMegaScale ran on (MEGA_SHARDS, default 1),
// and MegaViewers echoes MEGA_VIEWERS — wall clocks from different
// machines or lane counts are not comparable without them.
type Report struct {
	Date        string `json:"date"`
	GoOS        string `json:"goos,omitempty"`
	GoArch      string `json:"goarch,omitempty"`
	Pkg         string `json:"pkg,omitempty"`
	CPU         string `json:"cpu,omitempty"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	MegaShards  int    `json:"mega_shards"`
	MegaViewers int    `json:"mega_viewers,omitempty"`
	// TraceOverhead is the median traced-over-untraced week wall-clock
	// ratio (BenchmarkEngineWeekTraced / BenchmarkEngineWeekAcceleration)
	// over traceSamples pairs, with the lowest and highest pair beside
	// it. The tracing layer's budget is ≤ 1.05 on the median.
	TraceOverhead    float64  `json:"trace_overhead,omitempty"`
	TraceOverheadMin float64  `json:"trace_overhead_min,omitempty"`
	TraceOverheadMax float64  `json:"trace_overhead_max,omitempty"`
	Bench            string   `json:"bench"`
	BenchTime        string   `json:"benchtime"`
	Results          []Result `json:"results"`
}

// traceSamples is how many traced/untraced week pairs the trace
// overhead is judged on: one sample of each drifts by ±10% on a shared
// 1–2 core box, more than the 5% budget.
const traceSamples = 5

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	bench := fs.String("bench", defaultBench, "go test -bench regexp")
	benchtime := fs.String("benchtime", "1s", "go test -benchtime value")
	pkg := fs.String("pkg", ".", "package pattern holding the benchmarks")
	out := fs.String("out", "", "output path (default BENCH_<date>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	benchOut, err := goBench(*bench, *benchtime, *pkg, 1)
	if err != nil {
		return err
	}

	rep := Report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Bench:      *bench,
		BenchTime:  *benchtime,
		MegaShards: 1,
	}
	if n, err := strconv.Atoi(os.Getenv("MEGA_SHARDS")); err == nil && n > 0 {
		rep.MegaShards = n
	}
	if n, err := strconv.Atoi(os.Getenv("MEGA_VIEWERS")); err == nil && n > 0 {
		rep.MegaViewers = n
	}
	if err := parseInto(&rep, benchOut); err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark results parsed (regexp %q)", *bench)
	}
	if err := addTraceOverhead(&rep, *benchtime, *pkg); err != nil {
		return err
	}

	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(rep.Results))
	return nil
}

// goBench runs go test's benchmarks matching bench, echoes the output
// and returns it.
func goBench(bench, benchtime, pkg string, count int) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go test -bench: %w", err)
	}
	os.Stdout.Write(buf.Bytes())
	return buf.String(), nil
}

// addTraceOverhead, when the run measured both week benchmarks, reruns
// the pair traceSamples times and records the median, min and max of
// the per-sample traced/untraced ratios (the i-th traced run over the
// i-th untraced run).
func addTraceOverhead(rep *Report, benchtime, pkg string) error {
	const traced, untraced = "BenchmarkEngineWeekTraced", "BenchmarkEngineWeekAcceleration"
	seen := 0
	for _, r := range rep.Results {
		if r.Name == traced || r.Name == untraced {
			seen++
		}
	}
	if seen < 2 {
		return nil
	}
	out, err := goBench("^("+untraced+"|"+traced+")$", benchtime, pkg, traceSamples)
	if err != nil {
		return err
	}
	ratios, err := pairedRatios(out, traced, untraced)
	if err != nil {
		return fmt.Errorf("trace overhead: %w", err)
	}
	if len(ratios) != traceSamples {
		return fmt.Errorf("trace overhead: %d pairs, want %d", len(ratios), traceSamples)
	}
	rep.TraceOverhead = ratios[len(ratios)/2]
	rep.TraceOverheadMin = ratios[0]
	rep.TraceOverheadMax = ratios[len(ratios)-1]
	return nil
}

// pairedRatios parses go test -count output holding two benchmarks and
// returns the sorted ratios num_i / den_i of their i-th samples.
func pairedRatios(out, num, den string) ([]float64, error) {
	var rep Report
	if err := parseInto(&rep, out); err != nil {
		return nil, err
	}
	ns := map[string][]float64{}
	for _, r := range rep.Results {
		ns[r.Name] = append(ns[r.Name], r.NsPerOp)
	}
	if len(ns[num]) != len(ns[den]) {
		return nil, fmt.Errorf("%d %s samples but %d %s", len(ns[num]), num, len(ns[den]), den)
	}
	ratios := make([]float64, len(ns[num]))
	for i := range ratios {
		ratios[i] = ns[num][i] / ns[den][i]
	}
	sort.Float64s(ratios)
	return ratios, nil
}

// parseInto fills the report from go test's benchmark output.
func parseInto(rep *Report, out string) error {
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(line)
			if !ok {
				return fmt.Errorf("unparseable benchmark line: %q", line)
			}
			rep.Results = append(rep.Results, r)
		}
	}
	return nil
}

// parseLine parses one "BenchmarkX-8  N  ns/op [B/op allocs/op MB/s]" line.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "MB/s":
			r.MBPerS = v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[f[i+1]] = v
		}
	}
	return r, r.NsPerOp > 0
}
