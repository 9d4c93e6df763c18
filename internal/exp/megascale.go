package exp

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
)

// MegaConfig scales the engine-capacity study: a modest tree of real
// protocol peers (full login/join/re-key/content paths) fronts a virtual
// population of up to a million viewers whose license renewals and
// eviction sentinels ride the scheduler's timer wheel. The scenario
// exists to prove the engine side of the paper's scalability claim — the
// DRM adds no central per-viewer cost, so the simulator must also sustain
// per-viewer timer load at broadcast population sizes.
type MegaConfig struct {
	Seed int64
	// Viewers is the virtual population size (default 1,000,000). Each
	// viewer holds one pending renewal timer and one pending eviction
	// sentinel at all times.
	Viewers int
	// RealViewers is the number of full-protocol clients in the overlay
	// tree (default 64).
	RealViewers int
	// Duration is the measured steady-state window (default 30 min).
	Duration time.Duration
	// RenewEvery is the per-viewer license renewal period (default 5 min).
	// Renewals are phase-jittered uniformly so load is flat, not bursty.
	// Every renewal re-arms the silent-viewer eviction deadline at
	// 2.5 × RenewEvery, cancelling the previous sentinel — the dominant
	// Timer.Stop workload at scale.
	RenewEvery time.Duration
	// SampleEvery is the metrics cadence (default 1 min).
	SampleEvery time.Duration
	// MetricsCSV / MetricsJSONL, when set, receive the metric rows as a
	// stream on the sim-clock cadence; the in-memory series then retains
	// nothing, keeping the heap bounded for arbitrarily long runs.
	MetricsCSV   io.Writer
	MetricsJSONL io.Writer
	// Shards is the number of worker lanes the virtual population
	// stripes over (default 1). The real overlay stays on the control
	// scheduler and every viewer draws from its own RNG stream, so the
	// fingerprint is identical for any shard count.
	Shards int
}

// The population's fixed behaviour and the real overlay's pacing.
const (
	// megaChurnFrac is the per-renewal probability that a viewer departs
	// silently; its sentinel then fires and a replacement joins with a
	// fresh phase.
	megaChurnFrac      = 0.02
	megaRekeyInterval  = time.Minute
	megaPacketInterval = 2 * time.Second
)

func (c *MegaConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Viewers <= 0 {
		c.Viewers = 1_000_000
	}
	if c.RealViewers <= 0 {
		c.RealViewers = 64
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Minute
	}
	if c.RenewEvery <= 0 {
		c.RenewEvery = 5 * time.Minute
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = time.Minute
	}
}

// MegaResult is one population point's outcome.
type MegaResult struct {
	Viewers     int
	RealViewers int
	// Renewals / Churned / Evictions count virtual-population events in
	// the measured window.
	Renewals  int64
	Churned   int64
	Evictions int64
	// KeyMsgs / Frames come from the real overlay (whole run).
	KeyMsgs int64
	Frames  int64
	// Rows is the number of metric rows sampled (streamed or retained).
	Rows int
	// PeakPending is the largest scheduler backlog observed at a sample
	// tick — with two timers per virtual viewer it sits near 2×Viewers.
	PeakPending int
	// Wall is the host time the simulation took.
	Wall time.Duration
}

// Fingerprint summarizes every deterministic counter; goldens pin it.
func (r *MegaResult) Fingerprint() string {
	return fmt.Sprintf("viewers=%d real=%d renewals=%d churned=%d evictions=%d keymsgs=%d frames=%d rows=%d peak=%d",
		r.Viewers, r.RealViewers, r.Renewals, r.Churned, r.Evictions,
		r.KeyMsgs, r.Frames, r.Rows, r.PeakPending)
}

// RunMegaScale runs one population point: build the real overlay on
// the engine's control scheduler, warm it, release the virtual
// population onto cfg.Shards worker lanes, and sample metrics on the
// sim clock until the window closes. Per-viewer behavior depends only
// on the viewer's own stream and epoch boundaries depend only on the
// epoch length and the global event population, so the fingerprint is
// byte-identical for any shard count.
func RunMegaScale(cfg MegaConfig) (*MegaResult, error) {
	cfg.fill()
	wallStart := time.Now()
	eng := newEngine(cfg.Seed, cfg.Shards)
	sys, err := core.NewSystem(core.Options{
		Scheduler:       eng.Ctrl(),
		Seed:            cfg.Seed,
		RekeyInterval:   megaRekeyInterval,
		PacketInterval:  megaPacketInterval,
		RootRegion:      100,
		RootMaxChildren: 4, // deep tree: keys relay through viewers
	})
	if err != nil {
		return nil, err
	}
	if err := sys.DeployChannel(core.FreeToView("live", "Live", "100")); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var frames int64
	clients := make([]*client.Client, cfg.RealViewers)
	for i := 0; i < cfg.RealViewers; i++ {
		email := fmt.Sprintf("mega%05d@e", i)
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			return nil, err
		}
		c, err := sys.NewClient(email, "pw", geo.Addr(100, 1+i%40, i+1), func(cc *client.Config) {
			cc.OnFrame = func(uint64, []byte) {
				mu.Lock()
				frames++
				mu.Unlock()
			}
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c
		delay := time.Duration(i) * 250 * time.Millisecond
		sys.Sched.Go(func() {
			sys.Sched.Sleep(delay)
			if err := c.Login(); err != nil {
				return
			}
			_ = c.Watch("live")
		})
	}
	start := sys.Sched.Now()
	warm := time.Duration(cfg.RealViewers)*250*time.Millisecond + 30*time.Second
	// The lanes are still empty, so the warm-up runs as a single serial
	// control span.
	eng.Run(start.Add(warm))

	pops := newShardPops(eng, cfg.Viewers, cfg.Seed, cfg.RenewEvery, 2*cfg.RenewEvery+cfg.RenewEvery/2, megaChurnFrac)

	res := &MegaResult{Viewers: cfg.Viewers, RealViewers: cfg.RealViewers}
	sp := obs.NewSampler(cfg.SampleEvery)
	sp.AddSource(func(add func(string, float64)) {
		renewals, churned, evictions := popTotals(pops)
		add("mega.renewals", float64(renewals))
		add("mega.churned", float64(churned))
		add("mega.evictions", float64(evictions))
		p := eng.Pending()
		if p > res.PeakPending {
			res.PeakPending = p
		}
		add("sched.pending", float64(p))
	})
	sp.AddSource(func(add func(string, float64)) {
		st := sys.Net.Stats()
		add("net.sent", float64(st.Sent))
		add("net.delivered", float64(st.Delivered))
	})
	var sinks []obs.RowSink
	if cfg.MetricsCSV != nil {
		sinks = append(sinks, obs.NewCSVSink(cfg.MetricsCSV))
	}
	if cfg.MetricsJSONL != nil {
		sinks = append(sinks, obs.NewJSONLSink(cfg.MetricsJSONL))
	}
	if len(sinks) > 0 {
		sp.Stream(obs.MultiSink(sinks...))
	}
	end := start.Add(warm + cfg.Duration)
	sp.Run(sys.Sched, end)
	eng.Run(end)
	sys.StopAll()

	res.Renewals, res.Churned, res.Evictions = popTotals(pops)
	res.KeyMsgs = overlayKeyMsgs(sys, clients)
	mu.Lock()
	res.Frames = frames
	mu.Unlock()
	res.Rows = sp.Series().Len()
	res.Wall = time.Since(wallStart)
	if err := sp.Series().SinkErr(); err != nil {
		return nil, fmt.Errorf("megascale metrics sink: %w", err)
	}
	return res, nil
}

// RenderMega prints the capacity study.
func RenderMega(points []*MegaResult) string {
	var b strings.Builder
	b.WriteString("Million-viewer engine capacity: virtual renewals over the timer wheel\n")
	fmt.Fprintf(&b, "%9s %6s %10s %8s %8s %9s %8s %12s %10s\n",
		"viewers", "real", "renewals", "churned", "evicted", "key-msgs", "frames", "peak-pending", "wall")
	for _, p := range points {
		fmt.Fprintf(&b, "%9d %6d %10d %8d %8d %9d %8d %12d %10s\n",
			p.Viewers, p.RealViewers, p.Renewals, p.Churned, p.Evictions,
			p.KeyMsgs, p.Frames, p.PeakPending, p.Wall.Round(time.Millisecond))
	}
	b.WriteString("(every viewer holds a renewal timer and an eviction sentinel; wall time\n")
	b.WriteString(" growing linearly in viewers is the engine-scalability acceptance bar)\n")
	return b.String()
}
