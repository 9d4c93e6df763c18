package exp

import (
	"testing"
	"time"
)

// TestFaultFlashAllReachPlayback is the scenario's acceptance bar: with
// 2% loss everywhere, degraded last miles, a transient partition, the
// whole User Manager farm crashing mid-crowd and a Channel Manager
// backend rebooting, every viewer still reaches playback before the
// session deadline.
func TestFaultFlashAllReachPlayback(t *testing.T) {
	t.Parallel()
	res, err := RunFaultFlash(FaultFlashConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Watching != res.Viewers {
		t.Fatalf("%d of %d viewers reached playback", res.Watching, res.Viewers)
	}
	if res.AllWatchingIn <= 0 {
		t.Fatalf("AllWatchingIn = %v", res.AllWatchingIn)
	}
	// The faults must actually have been absorbed by the resilience
	// layers, not dodged: each layer shows activity.
	if res.TransportRetries == 0 {
		t.Error("no transport retries despite 2% loss")
	}
	if res.BreakerOpens == 0 {
		t.Error("no breaker opens despite a full farm outage")
	}
	if res.ProtocolRestarts == 0 && res.SessionRetries == 0 {
		t.Error("no protocol restarts or session retries despite the outage")
	}
	if res.Net.Dropped == 0 {
		t.Error("network dropped nothing — loss not injected")
	}
	if res.Net.Dropped != res.Net.DroppedLoss+res.Net.DroppedLinkCut {
		t.Errorf("drop breakdown inconsistent: %+v", res.Net)
	}
	if res.Net.DroppedLoss == 0 {
		t.Error("no loss-draw drops despite 2% link loss")
	}
	// One-time round-2 tokens must never have been resent by the
	// transport layer, even under all these faults.
	for _, name := range []string{"drm.login2", "drm.switch2"} {
		if s, ok := res.Calls[name]; ok && s.Retries != 0 {
			t.Errorf("%s: %d transport retries — non-idempotent round was retried", name, s.Retries)
		}
	}
}

// TestFaultFlashDeterministicForFixedSeed is the property test for the
// jittered retry machinery: the faulty scenario — loss draws, backoff
// jitter, breaker cooldowns, crash/heal schedules and all — must be
// byte-deterministic for a fixed seed. Two runs, identical fingerprints.
func TestFaultFlashDeterministicForFixedSeed(t *testing.T) {
	t.Parallel()
	cfg := FaultFlashConfig{Seed: 17, Viewers: 60, Spread: 15 * time.Second}
	a, err := RunFaultFlash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultFlash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different runs:\n  a: %s\n  b: %s", fa, fb)
	}
	// And the seed matters: a different seed must explore a different
	// timeline (otherwise the fingerprint is insensitive and the property
	// above is vacuous).
	cfg.Seed = 18
	c, err := RunFaultFlash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds produced identical fingerprints — fingerprint too coarse")
	}
}
