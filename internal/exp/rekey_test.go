package exp

import (
	"strings"
	"testing"
	"time"
)

func TestRekeyAblationScalesWithInterval(t *testing.T) {
	t.Parallel()
	pts, err := RunRekeyAblation(RekeyConfig{
		Seed:      6,
		Viewers:   15,
		Watch:     10 * time.Minute,
		Intervals: []time.Duration{30 * time.Second, 5 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := pts[0], pts[1]
	if fast.KeyMsgs == 0 {
		t.Fatal("no key traffic measured")
	}
	// 10× longer interval → roughly 10× fewer key messages (loose 4×
	// bound to absorb boundary effects).
	if fast.KeyMsgs < 4*slow.KeyMsgs {
		t.Fatalf("key traffic: 30s=%d vs 5m=%d — not scaling with interval",
			fast.KeyMsgs, slow.KeyMsgs)
	}
	// §IV-E: keys arrive in advance of use — no undecryptable frames at
	// either interval.
	if fast.Undecryptable > fast.Frames/100 || slow.Undecryptable > slow.Frames/100 {
		t.Fatalf("undecryptable frames: fast=%d slow=%d", fast.Undecryptable, slow.Undecryptable)
	}
	if fast.Frames < 1000 || slow.Frames < 1000 {
		t.Fatalf("frames: %d / %d — playback unhealthy", fast.Frames, slow.Frames)
	}
	if s := RenderRekey(pts); !strings.Contains(s, "interval") {
		t.Fatal("render missing content")
	}
}
