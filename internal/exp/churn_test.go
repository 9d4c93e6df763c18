package exp

import (
	"strings"
	"testing"
	"time"
)

func TestChurnSurvivorsRecover(t *testing.T) {
	t.Parallel()
	res, err := RunChurn(ChurnConfig{
		Seed:            2,
		Viewers:         30,
		ChurnFraction:   0.3,
		Phase:           90 * time.Second,
		RootMaxChildren: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed != 9 {
		t.Fatalf("departed = %d, want 9", res.Departed)
	}
	// Content paces at one frame per 2s → healthy rate ≈ 0.5 f/s.
	if res.Before < 0.4 {
		t.Fatalf("pre-churn delivery %.2f f/s — overlay never healthy", res.Before)
	}
	if res.After < 0.8*res.Before {
		t.Fatalf("post-churn delivery %.2f vs %.2f before — survivors did not recover",
			res.After, res.Before)
	}
	if res.Rejoins == 0 {
		t.Fatal("no re-parenting events despite relay departures")
	}
	if s := RenderChurn(res); !strings.Contains(s, "depart") {
		t.Fatal("churn render missing content")
	}
}

func TestChurnHeavyLossOrphansHeal(t *testing.T) {
	t.Parallel()
	// A deeper overlay (60 viewers, tiny root) where departures orphan
	// whole subtrees: the stall watchdog's channel resets must reconnect
	// them to the root's component.
	res, err := RunChurn(ChurnConfig{
		Seed:            1,
		Viewers:         60,
		ChurnFraction:   0.3,
		Phase:           2 * time.Minute,
		RootMaxChildren: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before < 0.4 {
		t.Fatalf("pre-churn delivery %.2f f/s — overlay never healthy", res.Before)
	}
	if res.After < 0.85*res.Before {
		t.Fatalf("post-churn delivery %.2f vs %.2f — orphaned subtrees never healed",
			res.After, res.Before)
	}
}
