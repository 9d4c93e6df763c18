package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/trad"
	"p2pdrm/internal/workload"
)

// FlashConfig scales the baseline comparison (§I motivation): a live
// event starts and viewers arrive within Spread. Every server backend —
// the central License Manager on the baseline side, each ticket-manager
// backend on the DRM side — gets the same Workers/ServiceMS capacity;
// the architectural difference is that the baseline cannot spread load
// (per-client license state pins it to one stateful server) while the
// paper's stateless managers farm out and the P2P overlay absorbs joins:
// the DRM side runs 4 User Manager and 4 Channel Manager backends.
type FlashConfig struct {
	Seed    int64
	Viewers int // single-point runs
	Spread  time.Duration
	// Per-backend capacity.
	Workers   int
	ServiceMS float64
}

// flashFarm is the DRM side's backend count per manager farm.
const flashFarm = 4

func (c *FlashConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 300
	}
	if c.Spread <= 0 {
		c.Spread = 10 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.ServiceMS <= 0 {
		c.ServiceMS = 10
	}
}

// SideResult summarizes one design's behaviour under the flash crowd.
type SideResult struct {
	Median      time.Duration
	P95         time.Duration
	Max         time.Duration
	AllServedIn time.Duration
	Failures    int
	MaxQueue    int
	// Endpoints is the side's server-side endpoint snapshot (the one
	// license service for the baseline, the whole deployment for DRM).
	Endpoints map[string]svc.Metrics
}

// FlashResult pairs the two designs at one viewer count.
type FlashResult struct {
	Viewers int
	Trad    SideResult // per-file license at playback time, central server
	DRM     SideResult // end-to-end login+switch+join, stateless farms + P2P
}

// RunFlashCrowd runs both designs under identical correlated arrivals.
func RunFlashCrowd(cfg FlashConfig) (*FlashResult, error) {
	cfg.fill()
	out := &FlashResult{Viewers: cfg.Viewers}
	tr, err := runTradFlash(cfg)
	if err != nil {
		return nil, err
	}
	out.Trad = tr
	dr, err := runDRMFlash(cfg)
	if err != nil {
		return nil, err
	}
	out.DRM = dr
	return out, nil
}

// RunFlashSweep reruns the comparison at growing viewer counts — the
// series behind the paper's peak-load-provisioning argument: the central
// server's tail latency grows with the crowd, the distributed design's
// does not. Points run on GOMAXPROCS workers.
func RunFlashSweep(cfg FlashConfig, viewerCounts []int) ([]FlashResult, error) {
	cfg.fill()
	return runPoints(len(viewerCounts), 0, func(i int) (FlashResult, error) {
		c := cfg
		c.Viewers = viewerCounts[i]
		res, err := RunFlashCrowd(c)
		if err != nil {
			return FlashResult{}, err
		}
		return *res, nil
	})
}

func summarize(lats []time.Duration, allDone time.Duration, failures, maxQ int) SideResult {
	return SideResult{
		Median:      feedback.Median(lats),
		P95:         feedback.Quantile(lats, 0.95),
		Max:         feedback.Quantile(lats, 1.0),
		AllServedIn: allDone,
		Failures:    failures,
		MaxQueue:    maxQ,
	}
}

// serviceStream is one seeded service-time RNG stream. Scenarios seed
// one per role (expService); the week's UM and CM backends share one
// and draw from it in turn.
type serviceStream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newServiceStream(seed int64) *serviceStream {
	return &serviceStream{rng: rand.New(rand.NewSource(seed))}
}

// exp returns a manager ServiceTime model: exponential draws with mean
// meanMS from the stream.
func (s *serviceStream) exp(meanMS float64) func() time.Duration {
	return func() time.Duration {
		s.mu.Lock()
		defer s.mu.Unlock()
		return time.Duration(s.rng.ExpFloat64() * meanMS * float64(time.Millisecond))
	}
}

// expService is the exponential service-time model on a stream of its
// own.
func expService(seed int64, meanMS float64) func() time.Duration {
	return newServiceStream(seed).exp(meanMS)
}

func runTradFlash(cfg FlashConfig) (SideResult, error) {
	start := time.Date(2008, 6, 23, 20, 0, 0, 0, time.UTC)
	s := sim.New(start, cfg.Seed)
	net := simnet.New(s, simnet.WithLatency(geo.LatencyModel(15*time.Millisecond, 60*time.Millisecond, 20*time.Millisecond)))
	srv, err := trad.New(net.NewNode("license.provider"), trad.Config{
		Workers:     cfg.Workers,
		ServiceTime: expService(cfg.Seed+1, cfg.ServiceMS),
	})
	if err != nil {
		return SideResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, cfg.Viewers, cfg.Spread)

	var mu sync.Mutex
	var lats []time.Duration
	var lastDone time.Duration
	failures := 0
	for i := 0; i < cfg.Viewers; i++ {
		i := i
		node := net.NewNode(geo.Addr(100, 1+i%40, i+1))
		s.Go(func() {
			s.Sleep(offsets[i])
			lat, err := trad.RequestLicense(node, "license.provider", uint64(i+1), "live-event", 10*time.Minute)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				return
			}
			lats = append(lats, lat)
			if done := s.Now().Sub(start); done > lastDone {
				lastDone = done
			}
		})
	}
	s.Run()
	_, maxQ := srv.QueueDepth()
	r := summarize(lats, lastDone, failures, maxQ)
	r.Endpoints = srv.Runtime().Snapshot()
	return r, nil
}

func runDRMFlash(cfg FlashConfig) (SideResult, error) {
	// §V extreme case: the popular live event gets a partition of its
	// own served by a Channel Manager farm; the User Manager farm scales
	// the same way. This horizontal provisioning is exactly what the
	// baseline's per-client license state rules out.
	sys, err := core.NewSystem(core.Options{
		Seed:           cfg.Seed,
		UserMgrFarm:    flashFarm,
		Partitions:     []string{"live"},
		ChannelMgrFarm: flashFarm,
		UserMgrCapacity: core.CapacityModel{
			Workers: cfg.Workers, ServiceTime: expService(cfg.Seed+3, cfg.ServiceMS),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: cfg.Workers, ServiceTime: expService(cfg.Seed+4, cfg.ServiceMS),
		},
		PacketInterval: 24 * 365 * time.Hour, // protocol-only, as in RunWeek
	})
	if err != nil {
		return SideResult{}, err
	}
	start := sys.Sched.Now()
	end := start.Add(30 * time.Minute)
	if err := sys.DeployChannel(core.FreeToView("live-event", "Live Event", "100")); err != nil {
		return SideResult{}, err
	}
	for i := 0; i < cfg.Viewers; i++ {
		if _, err := sys.RegisterUser(fmt.Sprintf("v%05d@e", i), "pw"); err != nil {
			return SideResult{}, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, cfg.Viewers, cfg.Spread)

	var mu sync.Mutex
	var lats []time.Duration // end-to-end: arrival → watching
	var lastDone time.Duration
	failures := 0
	for i := 0; i < cfg.Viewers; i++ {
		i := i
		email := fmt.Sprintf("v%05d@e", i)
		addr := geo.Addr(100, 1+i%40, i+1)
		c, err := sys.NewClient(email, "pw", addr, nil)
		if err != nil {
			return SideResult{}, err
		}
		sys.Sched.Go(func() {
			sys.Sched.Sleep(offsets[i])
			t0 := sys.Sched.Now()
			if err := c.Login(); err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
				return
			}
			if err := c.Watch("live-event"); err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
				return
			}
			mu.Lock()
			lats = append(lats, sys.Sched.Now().Sub(t0))
			if done := sys.Sched.Now().Sub(start); done > lastDone {
				lastDone = done
			}
			mu.Unlock()
		})
	}
	sys.Sched.RunUntil(end)
	sys.StopAll()
	r := summarize(lats, lastDone, failures, sys.ManagerQueueHighWater())
	r.Endpoints = sys.EndpointTotals()
	return r, nil
}
