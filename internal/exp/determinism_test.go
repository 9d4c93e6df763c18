package exp

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/feedback"
)

// The old engine's per-seed determinism was accidental and, in fact,
// broken: a goroutine waking another left both runnable, racing on the
// shared seeded RNG, maps fed fan-out ordering, and the stdlib's ecdh
// keygen consumed a runtime-randomized number of bytes from the shared
// stream (randutil.MaybeReadByte). The reworked engine serializes
// execution under a run token, fans out in sorted order, and draws
// exactly 32 bytes per X25519 key, making determinism a hard guarantee.
// These fingerprints pin it: every run — sequential or parallel, any
// GOMAXPROCS — must reproduce them byte for byte.

func farmFingerprint(pts []FarmPoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "farm=%d login=%d/%d switch=%d/%d join=%d fail=%d maxq=%d\n",
			p.Farm, p.LoginMedian.Nanoseconds(), p.LoginP95.Nanoseconds(),
			p.SwitchMedian.Nanoseconds(), p.SwitchP95.Nanoseconds(),
			p.JoinMedian.Nanoseconds(), p.Failures, p.MaxQueue)
	}
	return b.String()
}

func weekFingerprint(r *WeekResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d peak=%d loginfail=%d\n",
		r.Sessions, r.PeakConcurrent, r.LoginFailures)
	counts := map[feedback.Round]int{}
	sums := map[feedback.Round]int64{}
	var atXor int64
	for _, smp := range r.Corpus.Samples() {
		counts[smp.Round]++
		sums[smp.Round] += smp.Latency.Nanoseconds()
		atXor ^= smp.At.UnixNano()
	}
	for _, rd := range feedback.Rounds {
		fmt.Fprintf(&b, "%s n=%d sum=%d\n", rd, counts[rd], sums[rd])
	}
	fmt.Fprintf(&b, "atxor=%d\n", atXor)
	return b.String()
}

var goldenFarmCfg = FarmConfig{
	Seed:      42,
	Viewers:   60,
	Spread:    5 * time.Second,
	FarmSizes: []int{1, 2},
}

var goldenWeekCfg = WeekConfig{
	Seed:                42,
	Days:                1,
	Channels:            3,
	Users:               30,
	PeakSessionsPerHour: 20,
	MeanSession:         15 * time.Minute,
}

// Recorded on the serialized engine with the configs above. Regenerate
// by running with GOLDEN_PRINT=1 — but a change here means the
// simulation's observable behaviour moved, which any perf-only PR must
// not do.
const goldenFarm = "farm=1 login=146025942/162629648 switch=153277584/181281683 join=54128910 fail=0 maxq=5\n" +
	"farm=2 login=145934797/163313966 switch=150367423/166851458 join=53819834 fail=0 maxq=2\n"

const goldenWeek = "sessions=203 peak=11 loginfail=0\n" +
	"LOGIN1 n=404 sum=57954145289\n" +
	"LOGIN2 n=404 sum=57791715422\n" +
	"SWITCH1 n=844 sum=119536309872\n" +
	"SWITCH2 n=841 sum=119511380530\n" +
	"JOIN n=958 sum=44916520674\n" +
	"atxor=1214150691858750957\n"

var goldenMegaCfg = MegaConfig{
	Seed:        42,
	Viewers:     20000,
	RealViewers: 12,
	Duration:    10 * time.Minute,
	RenewEvery:  2 * time.Minute,
	SampleEvery: time.Minute,
}

func TestFarmDeterminismGolden(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		cfg := goldenFarmCfg
		cfg.Parallelism = workers
		pts, err := RunFarmScaling(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := farmFingerprint(pts)
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("farm golden (workers=%d):\n%s", workers, got)
			continue
		}
		if got != goldenFarm {
			t.Errorf("workers=%d: farm results moved\n got:\n%s\nwant:\n%s", workers, got, goldenFarm)
		}
	}
}

func TestWeekDeterminismGolden(t *testing.T) {
	t.Parallel()
	res, err := RunWeek(goldenWeekCfg)
	if err != nil {
		t.Fatal(err)
	}
	got := weekFingerprint(res)
	if os.Getenv("GOLDEN_PRINT") != "" {
		t.Logf("week golden:\n%s", got)
		return
	}
	if got != goldenWeek {
		t.Errorf("week results moved\n got:\n%s\nwant:\n%s", got, goldenWeek)
	}
}

// TestWeekReplicatesSeqParIdentical pins the parallel runner itself: the
// same replicate seeds must yield identical corpora whether the points
// run on one worker or many.
func TestWeekReplicatesSeqParIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("replicated week runs in -short mode")
	}
	cfg := goldenWeekCfg
	seeds := []int64{7, 8, 9}
	run := func(workers int) []string {
		cfg := cfg
		cfg.Parallelism = workers
		res, err := RunWeekReplicates(cfg, seeds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([]string, len(res))
		for i, r := range res {
			out[i] = weekFingerprint(r)
		}
		return out
	}
	seq, par := run(1), run(3)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("replicate %d (seed %d) differs between sequential and parallel runs\n seq:\n%s\npar:\n%s",
				i, seeds[i], seq[i], par[i])
		}
	}
}
