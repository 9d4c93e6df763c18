package exp

import (
	"strings"
	"testing"
	"time"
)

func TestZapLatencyMeetsViewingExperience(t *testing.T) {
	t.Parallel()
	res, err := RunZap(ZapConfig{
		Seed:     4,
		Viewers:  10,
		Channels: 3,
		Zaps:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 20 {
		t.Fatalf("only %d zap samples", res.Samples)
	}
	// §II: channel switching "around 3 seconds" like satellite TV.
	if res.Median > 3*time.Second {
		t.Fatalf("median zap %v exceeds the 3s viewing-experience bar", res.Median)
	}
	if res.P95 > 5*time.Second {
		t.Fatalf("p95 zap %v far beyond the requirement", res.P95)
	}
	if res.Median <= 0 {
		t.Fatal("zero zap latency is impossible (protocol rounds + frame wait)")
	}
	if s := RenderZap(res); !strings.Contains(s, "zap") {
		t.Fatal("zap render missing content")
	}
}
