package exp

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// The lane engine's promise: for ANY shard count the run is
// byte-identical — fingerprints AND the streamed metric rows. Shards 0
// is the default and must mean one lane. A perf-only change must move
// none of these goldens.

const goldenMegaSharded = "viewers=20000 real=12 renewals=100582 churned=1996 evictions=1062 keymsgs=230 frames=3785 rows=10 peak=39587"

// TestMegaScaleShardGolden runs the mega scenario at shards ∈ {0, 1, 2,
// 8} and requires the fingerprint to match the pinned golden and the
// streamed CSV to be byte-identical across all shard counts.
func TestMegaScaleShardGolden(t *testing.T) {
	t.Parallel()
	var baseCSV []byte
	for _, shards := range []int{0, 1, 2, 8} {
		cfg := goldenMegaCfg
		cfg.Shards = shards
		var csv, jsonl bytes.Buffer
		cfg.MetricsCSV = &csv
		cfg.MetricsJSONL = &jsonl
		res, err := RunMegaScale(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := res.Fingerprint()
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("mega golden (shards=%d):\n%s", shards, got)
		} else if got != goldenMegaSharded {
			t.Errorf("shards=%d: megascale moved\n got: %s\nwant: %s", shards, got, goldenMegaSharded)
		}
		if jsonl.Len() == 0 {
			t.Errorf("shards=%d: no JSONL rows streamed", shards)
		}
		if baseCSV == nil {
			baseCSV = csv.Bytes()
			if len(baseCSV) == 0 {
				t.Fatal("no CSV rows streamed")
			}
		} else if !bytes.Equal(baseCSV, csv.Bytes()) {
			t.Errorf("shards=%d: streamed CSV differs from shards=0", shards)
		}
	}
}

// TestMegaShardedStreamsMatchRetained requires a run that retains its
// rows (no sinks) and one that streams them to produce the same
// fingerprint: exports must observe the simulation, never perturb it.
func TestMegaShardedStreamsMatchRetained(t *testing.T) {
	t.Parallel()
	cfg := goldenMegaCfg
	cfg.Shards = 2
	plain, err := RunMegaScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var csv, jsonl bytes.Buffer
	cfg.MetricsCSV = &csv
	cfg.MetricsJSONL = &jsonl
	streamed, err := RunMegaScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() != streamed.Fingerprint() {
		t.Errorf("streamed sharded run diverges\n retained: %s\n streamed: %s",
			plain.Fingerprint(), streamed.Fingerprint())
	}
	if csv.Len() == 0 || jsonl.Len() == 0 {
		t.Fatal("sinks received nothing")
	}
}

const goldenWeekSharded = "sessions=203 peak=11 loginfail=0\n" +
	"LOGIN1 n=404 sum=57954145289\n" +
	"LOGIN2 n=404 sum=57791715422\n" +
	"SWITCH1 n=844 sum=119536309872\n" +
	"SWITCH2 n=841 sum=119511380530\n" +
	"JOIN n=958 sum=44916520674\n" +
	"atxor=1214150691858750957\n" +
	"virtual renewals=1356326 churned=28025 evictions=27782\n"

func weekShardFingerprint(r *WeekResult) string {
	return weekFingerprint(r) + fmt.Sprintf("virtual renewals=%d churned=%d evictions=%d\n",
		r.VirtualRenewals, r.VirtualChurned, r.VirtualEvictions)
}

// TestWeekShardGolden runs the measurement week at shards ∈ {0, 1, 2,
// 8} with an ambient lane population and requires identical
// fingerprints and byte-identical metric CSVs. The protocol-side lines
// must equal the lane-free week golden too: the lanes may not perturb
// the control phase.
func TestWeekShardGolden(t *testing.T) {
	t.Parallel()
	var baseCSV []byte
	for _, shards := range []int{0, 1, 2, 8} {
		cfg := goldenWeekCfg
		cfg.Shards = shards
		cfg.VirtualViewers = 5000
		res, err := RunWeek(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := weekShardFingerprint(res)
		if os.Getenv("GOLDEN_PRINT") != "" {
			t.Logf("week lane golden (shards=%d):\n%s", shards, got)
		} else {
			if got != goldenWeekSharded {
				t.Errorf("shards=%d: sharded week moved\n got:\n%s\nwant:\n%s", shards, got, goldenWeekSharded)
			}
			if weekFingerprint(res) != goldenWeek {
				t.Errorf("shards=%d: lanes perturbed the protocol deployment", shards)
			}
		}
		var csv bytes.Buffer
		if err := res.Series.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if baseCSV == nil {
			baseCSV = csv.Bytes()
			if len(baseCSV) == 0 {
				t.Fatal("no metric rows")
			}
		} else if !bytes.Equal(baseCSV, csv.Bytes()) {
			t.Errorf("shards=%d: metrics CSV differs from shards=0", shards)
		}
	}
}
