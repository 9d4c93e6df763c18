package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
)

// TestWeekTraceShardInvariant pins the two tracing invariants at once:
// arming head-sampled tracing must not move the protocol corpus off the
// untraced golden (tracing observes, never perturbs), and every trace
// export — trace_event JSON, waterfalls, critical-path CSV — must be
// byte-identical at shards ∈ {1, 2, 8}.
func TestWeekTraceShardInvariant(t *testing.T) {
	t.Parallel()
	var baseEvents, baseFalls, baseCSV []byte
	for _, shards := range []int{1, 2, 8} {
		cfg := goldenWeekCfg
		cfg.Shards = shards
		cfg.TraceEvery = 2
		res, err := RunWeek(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if weekFingerprint(res) != goldenWeek {
			t.Errorf("shards=%d: tracing perturbed the protocol corpus\n got:\n%s\nwant:\n%s",
				shards, weekFingerprint(res), goldenWeek)
		}
		if res.Trace == nil || res.Trace.Len() == 0 {
			t.Fatalf("shards=%d: traced cohort emitted no spans", shards)
		}
		var ev, wf, cp bytes.Buffer
		if err := WriteTraceEvents(&ev, res.Trace); err != nil {
			t.Fatal(err)
		}
		if err := WriteWaterfalls(&wf, res.Trace); err != nil {
			t.Fatal(err)
		}
		if err := WriteCriticalPathCSV(&cp, res.Trace); err != nil {
			t.Fatal(err)
		}
		if baseEvents == nil {
			baseEvents, baseFalls, baseCSV = ev.Bytes(), wf.Bytes(), cp.Bytes()
		} else {
			if !bytes.Equal(baseEvents, ev.Bytes()) {
				t.Errorf("shards=%d: trace_event export differs from shards=1", shards)
			}
			if !bytes.Equal(baseFalls, wf.Bytes()) {
				t.Errorf("shards=%d: waterfall export differs from shards=1", shards)
			}
			if !bytes.Equal(baseCSV, cp.Bytes()) {
				t.Errorf("shards=%d: critical-path CSV differs from shards=1", shards)
			}
		}
	}
	if !strings.Contains(string(baseCSV), "login") {
		t.Error("critical-path CSV has no login journeys")
	}
}

// TestWeekUntracedAllocatesNoRing: TraceEvery == 0 must mean no ring at
// all, not an empty one — the zero-cost-off contract.
func TestWeekUntracedAllocatesNoRing(t *testing.T) {
	t.Parallel()
	res, err := RunWeek(goldenWeekCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced week allocated a span ring (%d spans)", res.Trace.Len())
	}
}

// TestTracedLoginStageSumMatchesLatency is the acceptance bar for the
// critical path: a traced login's stage durations must tile the journey
// exactly, and the journey must equal the latency the harness measures
// around c.Login() — the breakdown explains all of the time, not most
// of it.
func TestTracedLoginStageSumMatchesLatency(t *testing.T) {
	t.Parallel()
	trace := obs.NewTrace(1024)
	sys, err := core.NewSystem(core.Options{Seed: 5, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterUser("alice@e", "pw"); err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient("alice@e", "pw", geo.Addr(100, 1, 1), func(cc *client.Config) {
		cc.TraceID = obs.TraceIDFor(5, "alice@e")
	})
	if err != nil {
		t.Fatal(err)
	}
	var measured time.Duration
	sys.Sched.Go(func() {
		t0 := sys.Sched.Now()
		if err := c.Login(); err != nil {
			t.Errorf("login: %v", err)
			return
		}
		measured = sys.Sched.Now().Sub(t0)
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(30 * time.Second))
	c.StopWatching()

	paths := obs.CriticalPaths(trace.Spans())
	var login *obs.CriticalPath
	for i := range paths {
		if paths[i].Journey == "login" {
			login = &paths[i]
		}
	}
	if login == nil {
		t.Fatalf("no login critical path among %d spans", trace.Len())
	}
	var sum time.Duration
	names := make([]string, 0, len(login.Stages))
	for _, st := range login.Stages {
		sum += st.Duration
		names = append(names, st.Name)
	}
	if measured == 0 {
		t.Fatal("login never completed")
	}
	const tick = time.Nanosecond // scheduler resolution: one sim tick
	if diff := (sum - measured); diff > tick || diff < -tick {
		t.Errorf("stage sum %v != measured login latency %v (diff %v; stages %v)",
			sum, measured, diff, names)
	}
	if diff := (login.Total - measured); diff > tick || diff < -tick {
		t.Errorf("journey root %v != measured login latency %v", login.Total, measured)
	}
	got := strings.Join(names, ",")
	for _, want := range []string{"redirect", "login1", "login2", "chanlist"} {
		if !strings.Contains(got, want) {
			t.Errorf("critical path missing stage %q (got %s)", want, got)
		}
	}
}

// TestScaleOutTraceSpans pins the satellite coverage on the resharding
// scenario: stale-shard-map login retries leave wrong-shard restart
// spans in the ring, the ring's overflow is real and surfaced through
// the JSONL footer, and traced journeys assembled into trees.
func TestScaleOutTraceSpans(t *testing.T) {
	t.Parallel()
	res, err := RunScaleOut(ScaleOutConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Trace.Spans()
	wrongShard, journeys := 0, 0
	for _, sp := range spans {
		if sp.Kind == obs.KindRestart && strings.Contains(sp.Detail, "wrong shard") {
			wrongShard++
		}
		if sp.Kind == obs.KindJourney {
			journeys++
		}
	}
	if wrongShard == 0 {
		t.Error("no wrong-shard restart spans despite stale-map retries")
	}
	if journeys == 0 {
		t.Error("no journey roots in the ring")
	}
	// The 8k ring overflows in this scenario; exports must say so.
	if res.Trace.Dropped() == 0 {
		t.Skip("ring did not overflow; overflow reporting covered in obs tests")
	}
	var jsonl bytes.Buffer
	if err := res.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	_, footer, err := obs.ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if footer == nil || footer.Dropped != res.Trace.Dropped() {
		t.Fatalf("footer %+v does not report the ring's %d dropped spans", footer, res.Trace.Dropped())
	}
	breakdown := RenderJourneyBreakdown(res.Trace)
	if !strings.Contains(breakdown, "dropped by the ring") {
		t.Error("journey breakdown does not surface the drop count")
	}
}

// TestObservedScenarioTracesAssembleJourneys pins the shared harness's
// tracing contract on every scenario it observes: the ring is armed on
// the service runtimes (server spans) and on every client under a trace
// identity (journey roots), so drmsim -trace has journeys to assemble
// for each of them.
func TestObservedScenarioTracesAssembleJourneys(t *testing.T) {
	t.Parallel()
	runs := []struct {
		name string
		run  func() (*obs.Trace, error)
	}{
		{"faults", func() (*obs.Trace, error) {
			res, err := RunFaultFlash(FaultFlashConfig{Seed: 1, Viewers: 20, Spread: 10 * time.Second})
			if err != nil {
				return nil, err
			}
			return res.Trace, nil
		}},
		{"timeshift", func() (*obs.Trace, error) {
			res, err := RunTimeShift(TimeShiftConfig{Seed: 1})
			if err != nil {
				return nil, err
			}
			return res.Trace, nil
		}},
		{"adversary", func() (*obs.Trace, error) {
			res, err := RunAdversary(AdversaryConfig{Seed: 1})
			if err != nil {
				return nil, err
			}
			return res.Trace, nil
		}},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			trace, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[string]int{}
			for _, sp := range trace.Spans() {
				kinds[sp.Kind]++
			}
			if kinds[obs.KindServer] == 0 {
				t.Errorf("no %s spans: the ring is not armed on the service runtimes (kinds %v)", obs.KindServer, kinds)
			}
			if kinds[obs.KindJourney] == 0 {
				t.Errorf("no %s spans: clients carry no trace identity (kinds %v)", obs.KindJourney, kinds)
			}
			if len(obs.CriticalPaths(trace.Spans())) == 0 {
				t.Error("no journey assembled into a critical path")
			}
		})
	}
}
