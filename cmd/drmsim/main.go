// Command drmsim regenerates the paper's evaluation artifacts on the
// simulated deployment:
//
//	drmsim -fig 5a          Fig 5(a): login latency vs concurrent users
//	drmsim -fig 5b          Fig 5(b): channel-switch latency vs users
//	drmsim -fig 5c          Fig 5(c): join latency vs users
//	drmsim -fig 6           Fig 6: latency CDFs, peak vs off-peak
//	drmsim -fig corr        §VI Pearson correlation coefficients
//	drmsim -fig baseline    §I motivation: central license server vs DRM
//	drmsim -fig farm        §V: manager farm scaling
//	drmsim -fig churn       churn resilience of the overlay
//	drmsim -fig zap         channel-switch latency vs the §II 3s bar
//	drmsim -fig rekey       §IV-E re-key interval ablation
//	drmsim -fig faults      flash crowd with injected faults (crash, loss, partition)
//	drmsim -fig scaleout    elastic farm: crowd grows 10×, members added live via resharding
//	drmsim -fig megascale   engine capacity: virtual-viewer sweep up to -mega viewers
//	drmsim -fig megascale -shards 8   same sweep over 8 worker lanes,
//	                        byte-identical results
//	drmsim -fig timeshift   time-shifted viewing: key availability vs seek depth,
//	                        rights-conformance verdict over a mid-event lapse
//	drmsim -fig adversary   adversarial DRM: re-key storm, free-riders, ticket replay
//	drmsim -fig all         everything above
//
// The week-long trace (figs 5/6/corr) simulates -days of diurnal traffic
// and is scaled by -peak (sessions/hour at the evening peak), -channels
// and -users. Absolute numbers differ from the 2008 production
// deployment; the shapes are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"p2pdrm/internal/exp"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/svc"
)

// figure is one -fig value. run returns the figure's text and, for an
// observed scenario, its measurement, which -metrics and -trace export
// under the figure's name.
type figure struct {
	name string
	run  func(r *runner) (string, *exp.Observed, error)
}

// figures is every figure in `-fig all` order; -fig accepts each name
// and "all".
var figures = []figure{
	{"5a", weekFig(func(w *exp.WeekResult) string {
		return exp.RenderFig5(w, "Fig 5(a) login protocol", feedback.Login1, feedback.Login2)
	})},
	{"5b", weekFig(func(w *exp.WeekResult) string {
		return exp.RenderFig5(w, "Fig 5(b) channel switching protocol", feedback.Switch1, feedback.Switch2)
	})},
	{"5c", weekFig(func(w *exp.WeekResult) string {
		return exp.RenderFig5(w, "Fig 5(c) join protocol", feedback.Join)
	})},
	{"6", weekFig(func(w *exp.WeekResult) string {
		panels := make([]string, len(feedback.Rounds))
		for i, rd := range feedback.Rounds {
			panels[i] = exp.RenderFig6(w, rd, 0, 21)
		}
		return strings.Join(panels, "\n")
	})},
	{"corr", weekFig(exp.RenderCorrelations)},
	{"baseline", runBaseline},
	{"churn", func(r *runner) (string, *exp.Observed, error) {
		fmt.Fprintln(os.Stderr, "running churn study...")
		res, err := exp.RunChurn(exp.ChurnConfig{Seed: r.seed})
		if err != nil {
			return "", nil, err
		}
		return exp.RenderChurn(res), nil, nil
	}},
	{"zap", func(r *runner) (string, *exp.Observed, error) {
		fmt.Fprintln(os.Stderr, "running zap study...")
		res, err := exp.RunZap(exp.ZapConfig{Seed: r.seed})
		if err != nil {
			return "", nil, err
		}
		return exp.RenderZap(res), nil, nil
	}},
	{"rekey", func(r *runner) (string, *exp.Observed, error) {
		fmt.Fprintln(os.Stderr, "running re-key ablation...")
		pts, err := exp.RunRekeyAblation(exp.RekeyConfig{Seed: r.seed})
		if err != nil {
			return "", nil, err
		}
		return exp.RenderRekey(pts), nil, nil
	}},
	{"faults", func(r *runner) (string, *exp.Observed, error) {
		fmt.Fprintln(os.Stderr, "running faulty flash crowd...")
		res, err := exp.RunFaultFlash(exp.FaultFlashConfig{Seed: r.seed})
		if err != nil {
			return "", nil, err
		}
		return exp.RenderFaultFlash(res), &res.Observed, nil
	}},
	{"scaleout", func(r *runner) (string, *exp.Observed, error) {
		fmt.Fprintln(os.Stderr, "running elastic scale-out sweep...")
		res, err := exp.RunScaleOut(exp.ScaleOutConfig{Seed: r.seed})
		if err != nil {
			return "", nil, err
		}
		return exp.RenderScaleOut(res), &res.Observed, nil
	}},
	{"megascale", runMegascale},
	{"timeshift", func(r *runner) (string, *exp.Observed, error) {
		fmt.Fprintln(os.Stderr, "running time-shifted viewing scenario...")
		res, err := exp.RunTimeShift(exp.TimeShiftConfig{Seed: r.seed})
		if err != nil {
			return "", nil, err
		}
		return exp.RenderTimeShift(res), &res.Observed, nil
	}},
	{"adversary", func(r *runner) (string, *exp.Observed, error) {
		fmt.Fprintln(os.Stderr, "running adversarial DRM scenario...")
		res, err := exp.RunAdversary(exp.AdversaryConfig{Seed: r.seed})
		if err != nil {
			return "", nil, err
		}
		return exp.RenderAdversary(res), &res.Observed, nil
	}},
	{"farm", runFarm},
}

// unobserved names, per figure, the export flags it cannot honour: its
// result carries no exp.Observed, so there is nothing for -metrics to
// write beyond what the figure exports itself, and no trace for -trace.
var unobserved = map[string][]string{
	"baseline":  {"-trace"},
	"farm":      {"-trace"},
	"megascale": {"-trace"},
	"churn":     {"-metrics", "-trace"},
	"zap":       {"-metrics", "-trace"},
	"rekey":     {"-metrics", "-trace"},
}

// ignored lists the export flags set on this run that figure name
// cannot honour.
func (r *runner) ignored(name string) []string {
	var out []string
	for _, flag := range unobserved[name] {
		if (flag == "-metrics" && r.metrics != nil) || (flag == "-trace" && r.trace != nil) {
			out = append(out, flag)
		}
	}
	return out
}

// figs enumerates every valid -fig value; an unknown value is an error,
// not a silent no-op run.
var figs = figNames()

func figNames() []string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return append(names, "all")
}

// runner carries the parsed flags and the exporters into the figures.
type runner struct {
	seed                  int64
	days, channels, users int
	peak                  float64
	viewers, farms, mega  string
	shards, traceEvery    int
	metrics, trace        *exporter
	week                  *exp.WeekResult // the shared week trace, run on first use
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "drmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var r runner
	fs := flag.NewFlagSet("drmsim", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: "+strings.Join(figs, "|"))
	fs.Int64Var(&r.seed, "seed", 1, "simulation seed")
	fs.IntVar(&r.days, "days", 7, "trace length in days (figs 5/6/corr)")
	fs.IntVar(&r.channels, "channels", 24, "deployed channels")
	fs.IntVar(&r.users, "users", 1200, "registered accounts")
	fs.Float64Var(&r.peak, "peak", 400, "session arrivals/hour at the diurnal peak")
	fs.StringVar(&r.viewers, "viewers", "50,200,800", "flash-crowd sizes (baseline)")
	fs.StringVar(&r.farms, "farms", "1,2,4,8", "farm sizes (farm scaling)")
	fs.StringVar(&r.mega, "mega", "50000,200000,1000000", "virtual-viewer sweep sizes (megascale)")
	fs.IntVar(&r.shards, "shards", 1, "worker lanes the megascale population stripes over (results are identical for any count)")
	metrics := fs.String("metrics", "", "directory for CSV/JSONL metric exports (empty = no exports)")
	traceDir := fs.String("trace", "", "directory for causal-trace exports: <fig>_trace_events.json (Perfetto/chrome://tracing), _waterfall.txt, _critical_path.csv; arms week tracing (empty = no trace exports)")
	fs.IntVar(&r.traceEvery, "traceevery", 10, "head-sample 1 in N week sessions when -trace is set (the other observed figures trace every viewer)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(figs, *fig) {
		return fmt.Errorf("unknown -fig %q (valid: %s)", *fig, strings.Join(figs, ", "))
	}
	var err error
	if r.metrics, err = newExporter(*metrics); err != nil {
		return err
	}
	if r.trace, err = newExporter(*traceDir); err != nil {
		return err
	}
	for _, f := range figures {
		if *fig != f.name && *fig != "all" {
			continue
		}
		if flags := r.ignored(f.name); len(flags) > 0 {
			fmt.Fprintf(os.Stderr, "drmsim: -fig %s cannot honour %s; nothing is exported for it\n", f.name, strings.Join(flags, " or "))
		}
		out, ob, err := f.run(&r)
		if err != nil {
			return err
		}
		fmt.Println(out)
		if err := r.export(f.name, ob); err != nil {
			return err
		}
	}
	return nil
}

// weekFig renders one panel of the week trace, which every week figure
// shares: the first of them to run simulates it.
func weekFig(render func(*exp.WeekResult) string) func(*runner) (string, *exp.Observed, error) {
	return func(r *runner) (string, *exp.Observed, error) {
		if r.week == nil {
			fmt.Fprintf(os.Stderr, "running %d-day trace (seed=%d, peak=%.0f sessions/h)...\n",
				r.days, r.seed, r.peak)
			start := time.Now()
			cfg := exp.WeekConfig{
				Seed:                r.seed,
				Days:                r.days,
				Channels:            r.channels,
				Users:               r.users,
				PeakSessionsPerHour: r.peak,
			}
			if r.trace != nil {
				cfg.TraceEvery = r.traceEvery
			}
			week, err := exp.RunWeek(cfg)
			if err != nil {
				return "", nil, err
			}
			fmt.Fprintf(os.Stderr, "trace done in %v: %d sessions, %d feedback logs, peak %d concurrent\n",
				time.Since(start).Round(time.Second), week.Sessions, week.Corpus.Logs(), week.PeakConcurrent)
			if err := r.export("week", &week.Observed); err != nil {
				return "", nil, err
			}
			r.week = week
		}
		return render(r.week), nil, nil
	}
}

func runBaseline(r *runner) (string, *exp.Observed, error) {
	counts, err := parseInts(r.viewers)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(os.Stderr, "running flash-crowd sweep %v...\n", counts)
	pts, err := exp.RunFlashSweep(exp.FlashConfig{Seed: r.seed, Spread: 5 * time.Second, Workers: 1, ServiceMS: 10}, counts)
	if err != nil {
		return "", nil, err
	}
	for _, p := range pts {
		if err := r.metrics.endpoints(fmt.Sprintf("baseline_%d_trad_endpoints.csv", p.Viewers), p.Trad.Endpoints); err != nil {
			return "", nil, err
		}
		if err := r.metrics.endpoints(fmt.Sprintf("baseline_%d_drm_endpoints.csv", p.Viewers), p.DRM.Endpoints); err != nil {
			return "", nil, err
		}
	}
	return exp.RenderFlashSweep(pts), nil, nil
}

func runFarm(r *runner) (string, *exp.Observed, error) {
	sizes, err := parseInts(r.farms)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(os.Stderr, "running farm scaling %v...\n", sizes)
	pts, err := exp.RunFarmScaling(exp.FarmConfig{Seed: r.seed, FarmSizes: sizes})
	if err != nil {
		return "", nil, err
	}
	for _, p := range pts {
		if err := r.metrics.endpoints(fmt.Sprintf("farm_%d_endpoints.csv", p.Farm), p.Endpoints); err != nil {
			return "", nil, err
		}
	}
	return exp.RenderFarm(pts), nil, nil
}

func runMegascale(r *runner) (string, *exp.Observed, error) {
	counts, err := parseInts(r.mega)
	if err != nil {
		return "", nil, err
	}
	fmt.Fprintf(os.Stderr, "running megascale sweep %v (shards=%d)...\n", counts, r.shards)
	pts := make([]*exp.MegaResult, 0, len(counts))
	for i, n := range counts {
		cfg := exp.MegaConfig{Seed: r.seed, Viewers: n, Shards: r.shards}
		var files []*os.File
		if i == len(counts)-1 {
			// Only the largest point streams: per-point files for every
			// sweep size would drown the export directory.
			csvF, err := r.metrics.create("megascale_series.csv")
			if err != nil {
				return "", nil, err
			}
			jslF, err := r.metrics.create("megascale_series.jsonl")
			if err != nil {
				return "", nil, err
			}
			if csvF != nil {
				cfg.MetricsCSV = csvF
				files = append(files, csvF)
			}
			if jslF != nil {
				cfg.MetricsJSONL = jslF
				files = append(files, jslF)
			}
		}
		res, err := exp.RunMegaScale(cfg)
		for _, f := range files {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return "", nil, err
		}
		pts = append(pts, res)
	}
	return exp.RenderMega(pts), nil, nil
}

// export writes an observed figure's metric files under -metrics and
// its causal-trace files under -trace, then prints the trace's journey
// breakdown. A nil measurement (an unobserved figure) exports nothing.
func (r *runner) export(name string, ob *exp.Observed) error {
	if ob == nil {
		return nil
	}
	if err := r.metrics.observed(name, ob); err != nil {
		return err
	}
	if r.trace == nil || ob.Trace == nil {
		return nil
	}
	if err := r.trace.traces(name, ob.Trace); err != nil {
		return err
	}
	fmt.Println(exp.RenderJourneyBreakdown(ob.Trace))
	return nil
}

// exporter writes metric files under one directory. A nil exporter (no
// -metrics flag) skips every export, so the figure paths stay untouched.
type exporter struct{ dir string }

func newExporter(dir string) (*exporter, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &exporter{dir: dir}, nil
}

func (e *exporter) write(name string, fill func(w io.Writer) error) error {
	if e == nil {
		return nil
	}
	path := filepath.Join(e.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}

// create opens a file for streaming writes during a run (a nil exporter
// returns a nil file: no export). The caller owns closing it.
func (e *exporter) create(name string) (*os.File, error) {
	if e == nil {
		return nil, nil
	}
	path := filepath.Join(e.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "streaming", path)
	return f, nil
}

func (e *exporter) endpoints(name string, eps map[string]svc.Metrics) error {
	return e.write(name, func(w io.Writer) error { return exp.WriteEndpointsCSV(w, eps) })
}

// observed writes one figure's measurement: <name>_phases.csv (when
// the scenario has a timeline), _endpoints.csv, _calls.csv, _series.csv
// and _trace.jsonl (when it ran traced).
func (e *exporter) observed(name string, ob *exp.Observed) error {
	if e == nil {
		return nil
	}
	if len(ob.Phases) > 0 {
		if err := e.write(name+"_phases.csv", func(w io.Writer) error {
			return exp.WritePhasesCSV(w, ob.Phases)
		}); err != nil {
			return err
		}
	}
	if err := e.endpoints(name+"_endpoints.csv", ob.Endpoints); err != nil {
		return err
	}
	if err := e.write(name+"_calls.csv", func(w io.Writer) error {
		return exp.WriteCallsCSV(w, ob.Calls)
	}); err != nil {
		return err
	}
	if err := e.write(name+"_series.csv", ob.Series.WriteCSV); err != nil {
		return err
	}
	if ob.Trace == nil {
		return nil
	}
	return e.write(name+"_trace.jsonl", ob.Trace.WriteJSONL)
}

// traces writes one figure's causal-trace artifacts: the Chrome
// trace_event JSON (load at ui.perfetto.dev), the rendered per-viewer
// waterfalls, and the flattened critical-path CSV.
func (e *exporter) traces(name string, t *obs.Trace) error {
	if err := e.write(name+"_trace_events.json", func(w io.Writer) error {
		return exp.WriteTraceEvents(w, t)
	}); err != nil {
		return err
	}
	if err := e.write(name+"_waterfall.txt", func(w io.Writer) error {
		return exp.WriteWaterfalls(w, t)
	}); err != nil {
		return err
	}
	return e.write(name+"_critical_path.csv", func(w io.Writer) error {
		return exp.WriteCriticalPathCSV(w, t)
	})
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n := 0
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad integer list %q", csv)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list")
	}
	return out, nil
}
