package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
)

// ChurnConfig scales the churn-resilience study: the P2P overlay's
// "membership changes as peers join and leave" (§I) must not take the
// surviving viewers' signal down — parents are replaced via the peer
// list and the channel keeps playing.
type ChurnConfig struct {
	Seed    int64
	Viewers int
	// ChurnFraction of viewers departs abruptly mid-broadcast.
	ChurnFraction float64
	// Phase is the length of each measurement phase (before/during/
	// after).
	Phase time.Duration
	// RootMaxChildren keeps the root small so most viewers depend on
	// relays.
	RootMaxChildren int
	// Parents is the per-viewer parent count (receiver-based
	// peer-division multiplexing; 1 disables PDM). Default 2.
	Parents int
}

func (c *ChurnConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 60
	}
	if c.ChurnFraction <= 0 || c.ChurnFraction >= 1 {
		c.ChurnFraction = 0.3
	}
	if c.Phase <= 0 {
		c.Phase = 2 * time.Minute
	}
	if c.RootMaxChildren <= 0 {
		c.RootMaxChildren = 4
	}
	if c.Parents <= 0 {
		c.Parents = 2
	}
}

// ChurnResult reports per-phase delivery health of the surviving
// viewers.
type ChurnResult struct {
	Viewers  int
	Departed int
	// Delivery rates in frames/sec averaged over survivors, per phase.
	Before float64
	During float64
	After  float64
	// Rejoins counts survivor re-parenting events; Stalls counts full
	// channel resets by the survivors' stall watchdogs.
	Rejoins int64
	Stalls  int64
}

// RunChurn runs the broadcast with real content flowing, departs a
// fraction of the audience at once, and measures survivor delivery
// before, during and after the churn event.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.fill()
	sys, err := core.NewSystem(core.Options{
		Seed:            cfg.Seed,
		RootMaxChildren: cfg.RootMaxChildren,
		PacketInterval:  2 * time.Second,
		RootRegion:      100,
	})
	if err != nil {
		return nil, err
	}
	if err := sys.DeployChannel(core.FreeToView("live", "Live", "100")); err != nil {
		return nil, err
	}

	departing := int(float64(cfg.Viewers) * cfg.ChurnFraction)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	_ = rng

	var mu sync.Mutex
	frames := make([]int, cfg.Viewers)
	clients := make([]*client.Client, cfg.Viewers)
	for i := 0; i < cfg.Viewers; i++ {
		i := i
		email := fmt.Sprintf("churn%04d@e", i)
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			return nil, err
		}
		c, err := sys.NewClient(email, "pw", geo.Addr(100, 1+i%40, i+1), func(cc *client.Config) {
			cc.Parents = cfg.Parents
			cc.OnFrame = func(uint64, []byte) {
				mu.Lock()
				frames[i]++
				mu.Unlock()
			}
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c
		delay := time.Duration(i) * 500 * time.Millisecond
		sys.Sched.Go(func() {
			sys.Sched.Sleep(delay)
			if err := c.Login(); err != nil {
				return
			}
			_ = c.Watch("live")
		})
	}

	start := sys.Sched.Now()
	warm := time.Duration(cfg.Viewers)*500*time.Millisecond + 30*time.Second
	snapshot := func() []int {
		mu.Lock()
		defer mu.Unlock()
		out := make([]int, len(frames))
		copy(out, frames)
		return out
	}

	// Warm-up, then measure phase boundaries.
	sys.Sched.RunUntil(start.Add(warm))
	s0 := snapshot()
	sys.Sched.RunUntil(start.Add(warm + cfg.Phase))
	s1 := snapshot()
	// Churn: the first `departing` viewers leave abruptly (they are the
	// oldest peers, i.e. the most load-bearing relays).
	for i := 0; i < departing; i++ {
		clients[i].StopWatching()
	}
	sys.Sched.RunUntil(start.Add(warm + 2*cfg.Phase))
	s2 := snapshot()
	sys.Sched.RunUntil(start.Add(warm + 3*cfg.Phase))
	s3 := snapshot()
	sys.StopAll()

	rate := func(a, b []int) float64 {
		sum := 0.0
		n := 0
		for i := departing; i < cfg.Viewers; i++ {
			sum += float64(b[i]-a[i]) / cfg.Phase.Seconds()
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	res := &ChurnResult{
		Viewers:  cfg.Viewers,
		Departed: departing,
		Before:   rate(s0, s1),
		During:   rate(s1, s2),
		After:    rate(s2, s3),
	}
	for i := departing; i < cfg.Viewers; i++ {
		res.Rejoins += clients[i].Stats().Rejoins
		res.Stalls += clients[i].Stats().Stalls
	}
	return res, nil
}

// RenderChurn prints the churn study.
func RenderChurn(r *ChurnResult) string {
	return fmt.Sprintf(
		"Churn resilience — %d of %d viewers depart abruptly\n"+
			"  survivor delivery before: %.2f frames/s\n"+
			"  survivor delivery during: %.2f frames/s\n"+
			"  survivor delivery after:  %.2f frames/s\n"+
			"  survivor re-parenting events: %d, stall resets: %d\n",
		r.Departed, r.Viewers, r.Before, r.During, r.After, r.Rejoins, r.Stalls)
}
