package exp

import (
	"testing"
	"time"
)

// TestPDMAblation compares single-parent distribution against
// receiver-based peer-division multiplexing (2 parents) under the same
// churn event. Empirically the two fail differently: a single-parent
// viewer goes fully silent and re-parents immediately (OnParentLoss),
// while a PDM viewer keeps half its sub-streams and relies on the
// slower per-substream stall watchdog for the other half — PDM's real
// win is splitting upstream bandwidth, not churn recovery. The ablation
// asserts both configurations recover and logs the comparison.
func TestPDMAblation(t *testing.T) {
	t.Parallel()
	run := func(parents int) *ChurnResult {
		res, err := RunChurn(ChurnConfig{
			Seed:            9,
			Viewers:         40,
			ChurnFraction:   0.3,
			Phase:           2 * time.Minute,
			RootMaxChildren: 4,
			Parents:         parents,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(1)
	pdm := run(2)
	if single.Before < 0.4 || pdm.Before < 0.4 {
		t.Fatalf("unhealthy baselines: %.2f / %.2f", single.Before, pdm.Before)
	}
	// Both must recover after the churn window.
	if single.After < 0.8*single.Before || pdm.After < 0.8*pdm.Before {
		t.Fatalf("recovery failed: single %.2f→%.2f, pdm %.2f→%.2f",
			single.Before, single.After, pdm.Before, pdm.After)
	}
	t.Logf("during-churn delivery: single-parent %.2f f/s, PDM %.2f f/s", single.During, pdm.During)
}
