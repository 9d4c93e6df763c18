package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/workload"
)

// FaultFlashConfig parameterizes the resilience scenario: the flash
// crowd of RunFlashCrowd's DRM side, with faults injected while the
// crowd is arriving — per-link loss on every path, a worse last mile
// for a subset of viewers, a transient partition cutting a second
// subset off the Channel Manager, a full User Manager farm outage
// mid-crowd, and one Channel Manager backend crash. The question the
// scenario answers: does every viewer still reach playback, and how is
// the recovery distributed across transport retries, circuit breaking,
// protocol restarts, and session-level retry?
type FaultFlashConfig struct {
	Seed    int64
	Viewers int           // default 120
	Spread  time.Duration // arrival spread after event start; default 20s
}

// The fault schedule and deployment every faulty flash crowd runs
// against (offsets are from event start).
const (
	// Per-backend capacity of the 2 UM and 2 CM backends (§VI sizes).
	faultWorkers   = 2
	faultServiceMS = 8
	// faultLinkLoss is the loss probability on every link; a
	// faultDegradedShare of viewers get faultDegradedLoss on their
	// infrastructure links instead (a bad last mile).
	faultLinkLoss      = 0.02
	faultDegradedShare = 0.10
	faultDegradedLoss  = 0.15
	// The whole User Manager farm goes down at faultCrashAt and restarts
	// faultCrashFor later: the VIP black-holes for the window — the
	// paper's managers are what must be survivable.
	faultCrashAt  = 10 * time.Second
	faultCrashFor = 15 * time.Second
	// One Channel Manager backend crashes and restarts; its VIP
	// health-checks around it, in-flight requests are lost.
	faultCMCrashAt  = 15 * time.Second
	faultCMCrashFor = 10 * time.Second
	// A faultPartitionShare of viewers lose their link to the Channel
	// Manager VIP at faultPartitionAt, healed faultPartitionFor later.
	faultPartitionShare = 0.15
	faultPartitionAt    = 5 * time.Second
	faultPartitionFor   = 10 * time.Second
	// faultRPCTimeout is the per-attempt client deadline (short, so
	// retries fit the session); every viewer must be watching within
	// faultDeadline of event start.
	faultRPCTimeout = 3 * time.Second
	faultDeadline   = 4 * time.Minute
)

func (c *FaultFlashConfig) fill() {
	if c.Viewers <= 0 {
		c.Viewers = 120
	}
	if c.Spread <= 0 {
		c.Spread = 20 * time.Second
	}
}

// FaultFlashResult reports the outcome and how recovery was distributed
// across the resilience layers.
type FaultFlashResult struct {
	Viewers       int
	Watching      int // viewers that reached playback by the deadline
	Degraded      int // viewers on a degraded last mile
	Partitioned   int // viewers behind the transient partition
	AllWatchingIn time.Duration
	Median        time.Duration
	P95           time.Duration
	Max           time.Duration

	SessionRetries   int64 // full login+watch sessions re-run by viewers
	ProtocolRestarts int64 // round-2 timeout → protocol restarted at round 1
	TransportRetries int64 // attempts beyond each call's first
	BreakerOpens     int64 // circuit-open transitions across all clients
	BreakerRejects   int64 // calls rejected fast by an open circuit

	// Observed phases follow the fault timeline: ramp → partition →
	// um-outage → cm-crash → healed.
	Observed
}

// Fingerprint digests every counter and latency into one line. Two runs
// with the same seed must produce identical fingerprints — the
// determinism property the golden tests pin for the fault-free runs,
// extended here to the faulty ones.
func (r *FaultFlashResult) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d w=%d deg=%d part=%d all=%d med=%d p95=%d max=%d",
		r.Viewers, r.Watching, r.Degraded, r.Partitioned,
		r.AllWatchingIn.Microseconds(), r.Median.Microseconds(),
		r.P95.Microseconds(), r.Max.Microseconds())
	fmt.Fprintf(&b, " sess=%d restart=%d retry=%d opens=%d rejects=%d sent=%d drop=%d",
		r.SessionRetries, r.ProtocolRestarts, r.TransportRetries,
		r.BreakerOpens, r.BreakerRejects, r.Net.Sent, r.Net.Dropped)
	for _, name := range sortedCallNames(r.Calls) {
		s := r.Calls[name]
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", name, s.Attempts, s.Retries, s.Failures, s.BreakerRejects)
	}
	return b.String()
}

func sortedCallNames(m map[string]svc.CallStats) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunFaultFlash runs the faulty flash crowd.
func RunFaultFlash(cfg FaultFlashConfig) (*FaultFlashResult, error) {
	cfg.fill()
	sys, ob, err := observe(8192, core.Options{
		Seed:           cfg.Seed,
		UserMgrFarm:    2,
		Partitions:     []string{"live"},
		ChannelMgrFarm: 2,
		UserMgrCapacity: core.CapacityModel{
			Workers: faultWorkers, ServiceTime: expService(cfg.Seed+3, faultServiceMS),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: faultWorkers, ServiceTime: expService(cfg.Seed+4, faultServiceMS),
		},
		PacketInterval: 24 * 365 * time.Hour, // protocol-only, as in RunWeek
		PacketLoss:     faultLinkLoss,
	})
	if err != nil {
		return nil, err
	}
	start := sys.Sched.Now()
	deadline := start.Add(faultDeadline)
	if err := sys.DeployChannel(core.FreeToView("live-event", "Live Event", "100")); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Viewers; i++ {
		if _, err := sys.RegisterUser(fmt.Sprintf("v%05d@e", i), "pw"); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	offsets := workload.FlashCrowd(rng, cfg.Viewers, cfg.Spread)
	degraded := workload.PickSubset(rng, cfg.Viewers, int(float64(cfg.Viewers)*faultDegradedShare))
	partitioned := workload.PickSubset(rng, cfg.Viewers, int(float64(cfg.Viewers)*faultPartitionShare))

	addrs := make([]simnet.Addr, cfg.Viewers)
	for i := range addrs {
		addrs[i] = geo.Addr(100, 1+i%40, i+1)
	}

	// Fault schedule. Everything keys off the deterministic scheduler:
	// the same seed replays the same outages against the same arrivals.
	infra := append(sys.InfraAddrs(), core.AddrChannelRoot("live-event"))
	for _, i := range degraded {
		for _, dst := range infra {
			sys.Net.SetLinkLoss(addrs[i], dst, faultDegradedLoss)
		}
	}
	var partAddrs []simnet.Addr
	for _, i := range partitioned {
		partAddrs = append(partAddrs, addrs[i])
	}
	cmVIP := core.AddrChannelMgr("live")
	sys.Net.SchedulePartition(partAddrs, []simnet.Addr{cmVIP}, start.Add(faultPartitionAt), faultPartitionFor)
	for _, b := range sys.UserMgrBackends() {
		sys.Net.ScheduleDown(b, start.Add(faultCrashAt), faultCrashFor)
	}
	if cmb := sys.ChannelMgrBackends(); len(cmb) > 0 {
		sys.Net.ScheduleDown(cmb[0], start.Add(faultCMCrashAt), faultCMCrashFor)
	}

	// Observability: phases keyed to the fault timeline and a 5-second
	// system sampler.
	ob.start(5*time.Second, deadline, []PhaseBoundary{
		{Name: "ramp", At: start},
		{Name: "partition", At: start.Add(faultPartitionAt)},
		{Name: "um-outage", At: start.Add(faultCrashAt)},
		{Name: "cm-crash", At: start.Add(faultCMCrashAt)},
		{Name: "healed", At: start.Add(faultCrashAt + faultCrashFor)},
	})

	var mu sync.Mutex
	var lats []time.Duration // arrival → watching
	var lastDone time.Duration
	watching := 0
	var sessionRetries int64
	clients := make([]*client.Client, cfg.Viewers)
	for i := 0; i < cfg.Viewers; i++ {
		i := i
		email := fmt.Sprintf("v%05d@e", i)
		c, err := ob.client(email, addrs[i], email, func(cc *client.Config) {
			cc.RPCTimeout = faultRPCTimeout
			cc.RPCAttempts = 3
			cc.BreakerThreshold = 3
			cc.BreakerCooldown = 4 * time.Second
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c
		sys.Sched.Go(func() {
			sys.Sched.Sleep(offsets[i])
			t0 := sys.Sched.Now()
			// Session loop: the layer a real player provides — if the
			// whole login+watch session fails (manager outage outlasting
			// the transport budget), back off and start over until the
			// event deadline.
			backoff := 2 * time.Second
			for {
				err := c.Login()
				if err == nil {
					err = c.Watch("live-event")
				}
				if err == nil {
					mu.Lock()
					watching++
					lats = append(lats, sys.Sched.Now().Sub(t0))
					if done := sys.Sched.Now().Sub(start); done > lastDone {
						lastDone = done
					}
					mu.Unlock()
					return
				}
				if !sys.Sched.Now().Before(deadline) {
					return
				}
				mu.Lock()
				sessionRetries++
				mu.Unlock()
				sys.Sched.Sleep(backoff + time.Duration(sys.Sched.Float64()*float64(time.Second)))
				if backoff *= 2; backoff > 15*time.Second {
					backoff = 15 * time.Second
				}
			}
		})
	}
	sys.Sched.RunUntil(deadline.Add(30 * time.Second))
	sys.StopAll()

	res := &FaultFlashResult{
		Viewers:        cfg.Viewers,
		Watching:       watching,
		Degraded:       len(degraded),
		Partitioned:    len(partitioned),
		AllWatchingIn:  lastDone,
		Median:         feedback.Median(lats),
		P95:            feedback.Quantile(lats, 0.95),
		Max:            feedback.Quantile(lats, 1.0),
		SessionRetries: sessionRetries,
		Observed:       ob.finish(),
	}
	for _, c := range clients {
		st := c.Stats()
		res.ProtocolRestarts += st.Restarts
		res.TransportRetries += st.Retries
		res.BreakerOpens += st.BreakerOpens
	}
	for _, cs := range res.Calls {
		res.BreakerRejects += cs.BreakerRejects
	}
	return res, nil
}
