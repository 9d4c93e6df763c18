package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestUnknownFigErrorListsEveryValidName pins the -fig error contract: a
// typo'd figure name must fail fast and the error must enumerate every
// valid value (the list is the discovery surface — there is no other).
func TestUnknownFigErrorListsEveryValidName(t *testing.T) {
	err := run([]string{"-fig", "nope"})
	if err == nil {
		t.Fatal("unknown -fig accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nope"`) {
		t.Errorf("error does not name the rejected value: %q", msg)
	}
	for _, f := range figs {
		if !strings.Contains(msg, f) {
			t.Errorf("error omits valid figure %q: %q", f, msg)
		}
	}
}

// The scenarios added after the original list must be registered, or the
// -fig gate silently locks them out.
func TestFigListCoversNewScenarios(t *testing.T) {
	for _, want := range []string{"faults", "scaleout", "megascale", "timeshift", "adversary", "all"} {
		found := false
		for _, f := range figs {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("figure %q missing from the -fig list", want)
		}
	}
}

// TestMetricsExportWritesScenarioArtifacts pins the -metrics and -trace
// contract for the observed scenarios: each run must leave the full
// five-file metric set (phases/endpoints/calls CSVs, the sampler series
// CSV, and the event trace JSONL) and the three causal-trace files
// (trace_event JSON, waterfalls, critical-path CSV), every file
// non-empty, with assembled login journeys in the waterfall.
func TestMetricsExportWritesScenarioArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario runs")
	}
	for _, fig := range []string{"faults", "scaleout", "timeshift", "adversary"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			metrics, traces := t.TempDir(), t.TempDir()
			// Silence the figure rendering; only the export side matters here.
			old := os.Stdout
			null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			os.Stdout = null
			err = run([]string{"-fig", fig, "-seed", "1", "-metrics", metrics, "-trace", traces})
			os.Stdout = old
			null.Close()
			if err != nil {
				t.Fatal(err)
			}
			var paths []string
			for _, suffix := range []string{"phases.csv", "endpoints.csv", "calls.csv", "series.csv", "trace.jsonl"} {
				paths = append(paths, filepath.Join(metrics, fig+"_"+suffix))
			}
			for _, suffix := range []string{"trace_events.json", "waterfall.txt", "critical_path.csv"} {
				paths = append(paths, filepath.Join(traces, fig+"_"+suffix))
			}
			for _, path := range paths {
				st, err := os.Stat(path)
				if err != nil {
					t.Errorf("missing artifact %s: %v", path, err)
					continue
				}
				if st.Size() == 0 {
					t.Errorf("artifact %s is empty", path)
				}
			}
			falls, err := os.ReadFile(filepath.Join(traces, fig+"_waterfall.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(falls), "journey login") {
				t.Error("waterfall holds no assembled login journey")
			}
		})
	}
}

// TestUnobservedFigureNamesIgnoredFlags pins the notice for figures
// whose results carry no exp.Observed: a -metrics or -trace the figure
// cannot honour is named on stderr, once, instead of being dropped
// without a word, and nothing is written for it.
func TestUnobservedFigureNamesIgnoredFlags(t *testing.T) {
	for name := range unobserved {
		if !slices.Contains(figs, name) {
			t.Errorf("unobserved lists %q, which is no figure", name)
		}
	}
	both := runner{metrics: &exporter{}, trace: &exporter{}}
	for _, tc := range []struct {
		fig  string
		r    runner
		want []string
	}{
		{"churn", both, []string{"-metrics", "-trace"}},
		{"rekey", runner{metrics: &exporter{}}, []string{"-metrics"}},
		{"megascale", both, []string{"-trace"}},
		{"farm", runner{metrics: &exporter{}}, nil},
		{"faults", both, nil},
		{"5a", both, nil},
		{"zap", runner{}, nil},
	} {
		if got := tc.r.ignored(tc.fig); !slices.Equal(got, tc.want) {
			t.Errorf("%s: ignored flags %v; want %v", tc.fig, got, tc.want)
		}
	}

	metrics, traces := t.TempDir(), t.TempDir()
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = null, stderr
	err = run([]string{"-fig", "zap", "-seed", "1", "-metrics", metrics, "-trace", traces})
	os.Stdout, os.Stderr = oldOut, oldErr
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	var notices []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "cannot honour") {
			notices = append(notices, line)
		}
	}
	if len(notices) != 1 || !strings.Contains(notices[0], "zap") ||
		!strings.Contains(notices[0], "-metrics") || !strings.Contains(notices[0], "-trace") {
		t.Fatalf("stderr notices %q; want one line naming zap, -metrics and -trace", notices)
	}
	for _, dir := range []string{metrics, traces} {
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%s holds %d files after a zap run; want none", dir, len(files))
		}
	}
}
