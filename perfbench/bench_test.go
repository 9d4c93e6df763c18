package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRankWithFailures(t *testing.T) {
	var l latencies
	for _, ms := range []int{50, 10, 40, 20, 30} {
		l.add(time.Duration(ms) * time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.2, 10}, {0.5, 30}, {0.95, 50}, {1, 50}, {0.01, 10}} {
		if got := l.percentileMS(tc.q); got != tc.want {
			t.Errorf("p%.0f of 5 samples = %v, want %v", 100*tc.q, got, tc.want)
		}
	}
	// Five failures on top: they sort after every success, so the
	// median is still a sample but the tail is +Inf.
	for i := 0; i < 5; i++ {
		l.fail()
	}
	if got := l.percentileMS(0.5); got != 50 {
		t.Errorf("p50 with 5 of 10 failed = %v, want 50", got)
	}
	if got := l.percentileMS(0.51); !math.IsInf(got, 1) {
		t.Errorf("p51 with 5 of 10 failed = %v, want +Inf", got)
	}
	if got := l.n(); got != 10 {
		t.Errorf("n = %d, want 10", got)
	}
	var empty latencies
	if got := empty.percentileMS(0.95); got != 0 {
		t.Errorf("empty p95 = %v, want 0", got)
	}
}

func TestAttributeSyntheticStacks(t *testing.T) {
	for _, tc := range []struct {
		name         string
		frames       []string // leaf first
		line, crypto string
	}{
		{
			"ed25519 verify under ticket",
			[]string{
				"crypto/internal/fips140/edwards25519.(*Point).VarTimeDoubleScalarBaseMult",
				"crypto/internal/fips140/ed25519.verify",
				"crypto/ed25519.Verify",
				"p2pdrm/internal/cryptoutil.PublicKey.VerifySig",
				"p2pdrm/internal/ticket.splitSigned",
				"p2pdrm/internal/ticket.VerifyUser",
				"p2pdrm/internal/channelmgr.(*Manager).verifyUserTicket",
			},
			"cryptoutil.ed25519_verify_s", "ticket.crypto_s",
		},
		{
			"x25519 inside a seal from p2p",
			[]string{
				"crypto/internal/fips140/edwards25519/field.feMul",
				"crypto/ecdh.(*PrivateKey).ECDH",
				"p2pdrm/internal/cryptoutil.Seal",
				"p2pdrm/internal/p2p.(*Peer).pushKey",
			},
			"cryptoutil.x25519_s", "p2p.crypto_s",
		},
		{
			"cryptoutil's own code, called from the harness",
			[]string{"p2pdrm/internal/cryptoutil.HashPassword", "main.runWeek"},
			"cryptoutil.other_s", "other.crypto_s",
		},
		{
			"runtime callee billed to the innermost repo frame",
			[]string{"runtime.mallocgc", "runtime.newobject", "p2pdrm/internal/sim.(*Scheduler).At", "p2pdrm/internal/p2p.(*Peer).relay"},
			"sim.cpu_s", "",
		},
		{
			"mapped package",
			[]string{"p2pdrm/internal/keys.(*Ring).Lookup", "p2pdrm/internal/client.(*Client).watch"},
			"p2p.cpu_s", "",
		},
		{
			"unmapped package",
			[]string{"p2pdrm/internal/core.(*System).NewClient", "main.runWeek"},
			"repo.other_s", "",
		},
		{
			"benchmark frame",
			[]string{"sort.Slice", "main.(*latencies).percentileMS"},
			"harness.cpu_s", "",
		},
		{
			"GC background worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"},
			"gc.cpu_s", "",
		},
		{
			"other runtime",
			[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
			"runtime.other_s", "",
		},
	} {
		line, crypto := attribute(tc.frames)
		if line != tc.line || crypto != tc.crypto {
			t.Errorf("%s: got (%q, %q), want (%q, %q)", tc.name, line, crypto, tc.line, tc.crypto)
		}
	}
}

var sink uint64

// TestLedgerOfRealProfile decodes a real CPU profile of this process and
// checks that the ledger bills every sample to a known line.
func TestLedgerOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := uint64(0); i < 1e5; i++ {
			sink += i * i
		}
	}
	pprof.StopCPUProfile()
	l, err := buildLedger(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if l.total <= 0 {
		t.Fatalf("profile total %d ns, want > 0", l.total)
	}
	known := map[string]bool{}
	for _, n := range ledgerLines {
		known[n] = true
	}
	for n := range l.lines {
		if !known[n] {
			t.Errorf("sample billed to unlisted line %q", n)
		}
	}
	if l.lines["harness.cpu_s"] == 0 {
		t.Errorf("busy loop in package main not billed to harness: %v", l.lines)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
}

func TestFirstWriteSplitsSetupFromRun(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := base
	fw := newFirstWrite(func() time.Time { return now })
	if _, _, ok := fw.split(base, base.Add(time.Second)); ok {
		t.Error("split reported ok before any write")
	}
	now = base.Add(400 * time.Millisecond)
	fw.Write(nil) // empty writes do not count
	now = base.Add(500 * time.Millisecond)
	fw.Write([]byte("time,a\n"))
	now = base.Add(900 * time.Millisecond)
	fw.Write([]byte("row\n"))
	setup, run, ok := fw.split(base, base.Add(3*time.Second))
	if !ok || setup != 500*time.Millisecond || run != 2500*time.Millisecond {
		t.Errorf("split = %v, %v, %v; want 500ms, 2.5s, true", setup, run, ok)
	}
}

func TestDeterminismGateTripsOnPerturbedMetric(t *testing.T) {
	mk := func(login float64) *iteration {
		return &iteration{
			Setup: time.Second, Run: 2 * time.Second, Attempted: 10,
			Sim: simSet{
				{Name: "login_p95_ms", Unit: "ms", Value: login, N: 10},
				count("simnet.sent", 42),
			},
		}
	}
	same := summarize("week", []*iteration{mk(100), mk(100), mk(100)}, mk(100))
	if len(same.gates) != 0 {
		t.Fatalf("identical runs tripped gates: %v", same.gates)
	}
	r := summarize("week", []*iteration{mk(100), mk(100.001), mk(100)}, nil)
	if len(r.gates) != 1 || !strings.Contains(r.gates[0], "login_p95_ms") {
		t.Errorf("perturbed run 2: gates %v, want one naming login_p95_ms", r.gates)
	}
	r = summarize("week", []*iteration{mk(100), mk(100)}, mk(99))
	if len(r.gates) != 1 || !strings.Contains(r.gates[0], "traced run") {
		t.Errorf("perturbed traced run: gates %v, want one naming the traced run", r.gates)
	}
	missing := mk(100)
	missing.Sim = missing.Sim[:1]
	if r := summarize("week", []*iteration{mk(100), missing}, nil); len(r.gates) != 1 {
		t.Errorf("run missing a metric: gates %v, want one", r.gates)
	}
	fp := mk(100)
	fp.Fingerprint = "other"
	if r := summarize("megascale", []*iteration{mk(100), fp}, nil); len(r.gates) != 1 {
		t.Errorf("fingerprint mismatch: gates %v, want one", r.gates)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	r := summarize("x", []*iteration{{Setup: 1, Run: 1, HeapPeak: 1}}, nil)
	if len(spec.EndToEnd) != len(r.e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(r.e2e))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != r.e2e[i].Name || m.Unit != r.e2e[i].Unit {
			t.Errorf("end-to-end %d: %s/%s in BENCHMARK.json, %s/%s in the benchmark", i, m.Name, m.Unit, r.e2e[i].Name, r.e2e[i].Unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the benchmark", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}
