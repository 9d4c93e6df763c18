package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/workload"
)

// Week deployment and load (the paper's §VI shape, one simulated day).
const (
	weekAccounts    = 400
	weekChannels    = 12
	weekPeakPerHour = 80
	weekSessions    = 800 // about one day of arrivals at weekPeakPerHour
	weekMeanSession = 12 * time.Minute
	weekMeanZap     = 3 * time.Minute
	weekZipfS       = 1.3
	weekDay         = 24 * time.Hour
	weekRelogin     = 30 * time.Second // re-login margin before User Ticket expiry
)

// weekSession is one generated viewing session: who, when, and the
// channel/dwell sequence it zaps through. Everything is drawn before
// the simulation starts, so the system receives only generated inputs.
type weekSession struct {
	account int
	arrive  time.Duration // offset from the start of the day
	zaps    []weekZap
}

type weekZap struct {
	channel int
	dwell   time.Duration
}

// weekInputs draws the day's sessions from the seed: diurnal open-loop
// arrivals, exponential session lengths and dwell times, Zipf channel
// picks and uniform account picks (so accounts come back and re-present
// their tickets).
//
// The amount of work is held steady across seeds, so that a seed
// changes which inputs arrive but not how many: the session count is
// fixed (arrival instants come from the diurnal process, folded onto
// one day), and session lengths are stratified exponential draws, so
// their total stays within a fraction of a percent of the mean.
func weekInputs(seed int64, start time.Time) []weekSession {
	rng := rand.New(rand.NewSource(seed))
	arrivals := workload.NewArrivals(rng, workload.DiurnalProfile(), weekPeakPerHour, start)
	zipf := workload.NewZipf(rng, weekZipfS, weekChannels)
	sessions := workload.NewSessions(rng, weekMeanSession, weekMeanZap)
	arrive := make([]time.Duration, weekSessions)
	now := start
	for i := range arrive {
		now = now.Add(arrivals.Next(now))
		arrive[i] = now.Sub(start) % weekDay
	}
	sort.Slice(arrive, func(i, j int) bool { return arrive[i] < arrive[j] })
	strata := rng.Perm(weekSessions)
	out := make([]weekSession, weekSessions)
	for i := range out {
		u := (float64(strata[i]) + rng.Float64()) / weekSessions
		length := time.Duration(-math.Log1p(-u) * float64(weekMeanSession))
		if length < time.Minute {
			length = time.Minute // the floor workload.Sessions applies
		}
		s := weekSession{account: rng.Intn(weekAccounts), arrive: arrive[i]}
		for remaining := length; remaining > 0; {
			dwell := sessions.ZapGap()
			if dwell > remaining {
				dwell = remaining
			}
			s.zaps = append(s.zaps, weekZap{channel: zipf.Pick(), dwell: dwell})
			remaining -= dwell
		}
		out[i] = s
	}
	return out
}

// runWeek is one iteration of the week workload.
func runWeek(seed int64, traced bool) (*iteration, error) {
	hostStart := time.Now()
	var ring *obs.Trace
	if traced {
		ring = obs.NewTrace(traceRingCap)
	}
	svcRng := rand.New(rand.NewSource(seed + 7))
	sys, err := core.NewSystem(core.Options{
		Trace:          ring,
		Seed:           seed,
		UserMgrFarm:    2,
		Partitions:     []string{"p1", "p2"},
		ChannelMgrFarm: 2,
		UserMgrCapacity: core.CapacityModel{
			Workers: 4, ServiceTime: expService(svcRng, 3),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: 4, ServiceTime: expService(svcRng, 2),
		},
		PacketInterval: 365 * 24 * time.Hour, // content off: protocol rounds only
		RekeyInterval:  time.Minute,
		RootRegion:     100,
	})
	if err != nil {
		return nil, err
	}
	start := sys.Sched.Now()
	end := start.Add(weekDay)
	channels := make([]string, weekChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("ch%02d", i)
		if err := sys.DeployChannel(core.FreeToView(channels[i], "Channel "+channels[i], "100")); err != nil {
			return nil, err
		}
	}
	for i := 0; i < weekAccounts; i++ {
		if _, err := sys.RegisterUser(weekEmail(i), "pw"); err != nil {
			return nil, err
		}
	}
	inputs := weekInputs(seed, start)
	clients := make([]*client.Client, len(inputs))
	addrs := make([]simnet.Addr, len(inputs))
	for i, s := range inputs {
		addrs[i] = geo.Addr(100, 1+i%40, 1000+i)
		key := fmt.Sprintf("%s#%d", weekEmail(s.account), i)
		c, err := sys.NewClient(weekEmail(s.account), "pw", addrs[i], func(cc *client.Config) {
			cc.Parents = 2
			if traced {
				cc.TraceID = obs.TraceIDFor(seed, key)
			}
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	setup := time.Since(hostStart)

	var logins, switches latencies
	var peers p2p.Stats
	pendingPeak := 0
	notePending := func() {
		if p := sys.Sched.Pending(); p > pendingPeak {
			pendingPeak = p
		}
	}
	// Sessions are closed loops on the scheduler's run token, so the
	// shared tallies above need no lock.
	for i := range inputs {
		s, c, addr := inputs[i], clients[i], addrs[i]
		sys.Sched.Go(func() {
			sys.Sched.Sleep(s.arrive)
			defer sys.Net.RemoveNode(addr)
			for _, z := range s.zaps {
				// Log in on arrival, and again whenever the User Ticket
				// would expire before the switch completes.
				if ut := c.UserTicket(); ut == nil || !sys.Sched.Now().Add(weekRelogin).Before(ut.Expiry) {
					notePending()
					t0 := sys.Sched.Now()
					if err := c.Login(); err != nil {
						logins.fail()
						return
					}
					logins.add(sys.Sched.Now().Sub(t0))
				}
				addPeerStats(&peers, c.Peer())
				notePending()
				t0 := sys.Sched.Now()
				if err := c.Watch(channels[z.channel]); err != nil {
					switches.fail()
				} else {
					switches.add(sys.Sched.Now().Sub(t0))
				}
				sys.Sched.Sleep(z.dwell)
				if !sys.Sched.Now().Before(end) {
					break
				}
			}
			addPeerStats(&peers, c.Peer())
			c.StopWatching()
		})
	}
	runStart := time.Now()
	sys.Sched.RunUntil(end)
	sys.StopAll()
	run := time.Since(runStart)

	for _, c := range clients {
		addPeerStats(&peers, c.Peer())
	}
	it := &iteration{Setup: setup, Run: run, spans: ring}
	it.Sim = append(it.Sim, viewerMetrics(&logins, &switches, nil)...)
	it.Sim = append(it.Sim, systemCounts(sys, clients, peers, pendingPeak)...)
	it.Attempted = logins.n() + switches.n()
	it.Failed = logins.failed + switches.failed
	if logins.failed > 0 {
		it.gate("week: %d of %d logins failed (the gate is zero)", logins.failed, logins.n())
	}
	return it, nil
}

func weekEmail(i int) string { return fmt.Sprintf("user%05d@example.com", i) }
