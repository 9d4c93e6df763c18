// Package exp contains the evaluation harness: each experiment rebuilds
// one table or figure of the paper's §VI (plus the baseline and ablation
// studies indexed in DESIGN.md) on top of the simulated deployment.
package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/workload"
)

// WeekConfig scales the Fig. 5 / Fig. 6 reproduction: a multi-day trace
// of diurnal login/switch/join traffic against the paper's deployment
// shape (two User Managers, four Channel Managers over two partitions,
// each backend 4 workers at 3 ms (UM) / 2 ms (CM) mean service).
type WeekConfig struct {
	Seed int64
	// Days of simulated time (paper: 7, June 23–29 2008).
	Days int
	// Channels deployed (paper: >200; scaled down by default to 24).
	Channels int
	// Users in the account pool.
	Users int
	// PeakSessionsPerHour is the session arrival rate at the diurnal
	// peak. With 45-minute sessions, concurrency ≈ 0.75×rate.
	PeakSessionsPerHour float64
	// MeanSession / MeanZap parameterize viewing behaviour.
	MeanSession time.Duration
	MeanZap     time.Duration
	// MetricsEvery is the system-metrics sampling period (endpoint and
	// network counters into WeekResult.Series). Default 1h — the same
	// granularity as the paper's per-hour tables.
	MetricsEvery time.Duration
	// Parallelism bounds concurrent replicates in RunWeekReplicates
	// (0 = GOMAXPROCS, 1 = sequential); a single RunWeek ignores it.
	Parallelism int
	// Shards is the number of worker lanes (default 1): the measured
	// protocol deployment stays on the control scheduler while
	// VirtualViewers stripe over the lanes. Results are identical for
	// any shard count.
	Shards int
	// VirtualViewers is the ambient license-renewal population carried
	// by the lanes — the broadcast audience whose renewals tick
	// alongside the measured sessions (default 0: empty lanes).
	VirtualViewers int
	// TraceEvery arms causal tracing on a deterministic head-sampled
	// cohort: a session is traced when obs.Sampled(Seed, key, TraceEvery)
	// holds for its session key (email#arrival). 1 traces every session,
	// 0 disables tracing entirely — no ring is allocated and the run is
	// byte-identical to an untraced one. Sampling is a pure hash of the
	// seed and key (no RNG draws), so the traced cohort — and the
	// exported spans — are identical at any shard count. The ring keeps
	// the newest weekTraceCap spans; exports report the dropped count.
	TraceEvery int
}

// The week's fixed deployment and sampling shape.
const (
	weekUMWorkers   = 4
	weekUMServiceMS = 3
	weekCMWorkers   = 4
	weekCMServiceMS = 2
	// weekSampleEvery is the concurrent-user sampling period.
	weekSampleEvery = 5 * time.Minute
	weekTraceCap    = 1 << 16
)

func (c *WeekConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Days <= 0 {
		c.Days = 7
	}
	if c.Channels <= 0 {
		c.Channels = 24
	}
	if c.Users <= 0 {
		c.Users = 1200
	}
	if c.PeakSessionsPerHour <= 0 {
		c.PeakSessionsPerHour = 400
	}
	if c.MeanSession <= 0 {
		c.MeanSession = 45 * time.Minute
	}
	if c.MeanZap <= 0 {
		c.MeanZap = 15 * time.Minute
	}
	if c.MetricsEvery <= 0 {
		c.MetricsEvery = time.Hour
	}
}

// WeekResult carries the corpus and trace parameters for rendering.
// Its Observed part holds the client-measured call distributions behind
// the Fig. 5 medians, the MetricsEvery-interval series, and the span
// ring of the traced cohort (nil unless WeekConfig.TraceEvery > 0).
type WeekResult struct {
	Corpus         *feedback.Corpus
	Start          time.Time
	Hours          int
	PeakConcurrent int
	Sessions       int
	LoginFailures  int
	// VirtualRenewals / VirtualChurned / VirtualEvictions count the
	// lane-resident ambient population's events.
	VirtualRenewals  int64
	VirtualChurned   int64
	VirtualEvictions int64
	Observed
}

// RunWeek simulates the measurement week and returns the feedback
// corpus. Content production is disabled: Fig. 5/6 measure only the five
// protocol rounds, and weeks of per-packet streaming would dominate the
// simulation for no additional fidelity (keys, joins and renewals still
// flow for real).
func RunWeek(cfg WeekConfig) (*WeekResult, error) {
	cfg.fill()
	svcStream := newServiceStream(cfg.Seed + 7) // shared by the UM and CM backends

	eng := newEngine(cfg.Seed, cfg.Shards)
	traceCap := 0
	if cfg.TraceEvery > 0 {
		traceCap = weekTraceCap
	}
	sys, ob, err := observe(traceCap, core.Options{
		Scheduler:      eng.Ctrl(),
		Seed:           cfg.Seed,
		UserMgrFarm:    2,
		Partitions:     []string{"p1", "p2"},
		ChannelMgrFarm: 2,
		UserMgrCapacity: core.CapacityModel{
			Workers: weekUMWorkers, ServiceTime: svcStream.exp(weekUMServiceMS),
		},
		ChannelMgrCapacity: core.CapacityModel{
			Workers: weekCMWorkers, ServiceTime: svcStream.exp(weekCMServiceMS),
		},
		PacketInterval: 24 * 365 * time.Hour, // content off (see doc comment)
		RekeyInterval:  time.Minute,
		RootRegion:     100, // broadcasters' servers live in the served region
	})
	if err != nil {
		return nil, err
	}
	start := sys.Sched.Now()
	end := start.Add(time.Duration(cfg.Days) * 24 * time.Hour)

	channelIDs := make([]string, cfg.Channels)
	for i := range channelIDs {
		id := fmt.Sprintf("ch%03d", i)
		channelIDs[i] = id
		if err := sys.DeployChannel(core.FreeToView(id, "Channel "+id, "100")); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Users; i++ {
		email := fmt.Sprintf("user%05d@example.com", i)
		if _, err := sys.RegisterUser(email, "pw"); err != nil {
			return nil, err
		}
	}

	res := &WeekResult{
		Corpus: feedback.NewCorpus(),
		Start:  start,
		Hours:  cfg.Days * 24,
	}
	var mu sync.Mutex
	active := 0
	hostSeq := 0

	// System metrics: the endpoint/network sampler plus the
	// cross-session call stats and concurrency. Sampling rides scheduled
	// events and reads only atomics, so the corpus (and its golden
	// fingerprint) is identical with or without it.
	sources := []obs.Source{ob.calls.Source(), func(add func(string, float64)) {
		mu.Lock()
		add("users.active", float64(active))
		mu.Unlock()
	}}

	// Ambient lane population: renewals tick on the worker lanes,
	// observed by the sampler at epoch boundaries.
	var pops []*shardPop
	if cfg.VirtualViewers > 0 {
		pops = newShardPops(eng, cfg.VirtualViewers, cfg.Seed,
			5*time.Minute, 12*time.Minute+30*time.Second, 0.02)
		sources = append(sources, func(add func(string, float64)) {
			renewals, churned, evictions := popTotals(pops)
			add("virtual.renewals", float64(renewals))
			add("virtual.churned", float64(churned))
			add("virtual.evictions", float64(evictions))
		})
	}
	ob.start(cfg.MetricsEvery, end, nil, sources...)

	wlRng := rand.New(rand.NewSource(cfg.Seed + 13))
	arrivals := workload.NewArrivals(wlRng, workload.DiurnalProfile(), cfg.PeakSessionsPerHour, start)
	zipf := workload.NewZipf(wlRng, 1.3, cfg.Channels)
	sessions := workload.NewSessions(wlRng, cfg.MeanSession, cfg.MeanZap)

	// Concurrent-user sampler (the "Total # of Concurrent Users" series).
	sys.Sched.Go(func() {
		for {
			if !sys.Sched.Now().Before(end) {
				return
			}
			sys.Sched.Sleep(weekSampleEvery)
			mu.Lock()
			n := active
			if n > res.PeakConcurrent {
				res.PeakConcurrent = n
			}
			res.Corpus.RecordUsers(sys.Sched.Now(), n)
			mu.Unlock()
		}
	})

	runSession := func(email string, addr simnet.Addr, traceKey string) {
		// Head sampling: sessions outside the cohort stay dark (no flat
		// call spans crowding the ring).
		if !obs.Sampled(cfg.Seed, traceKey, cfg.TraceEvery) {
			traceKey = ""
		}
		c, err := ob.client(email, addr, traceKey, func(cc *client.Config) { cc.Parents = 2 })
		if err != nil {
			return
		}
		defer func() {
			c.StopWatching()
			res.Corpus.Submit(c.FeedbackLog())
			ob.calls.Finish(c)
			sys.Net.RemoveNode(addr)
		}()
		if err := c.Login(); err != nil {
			mu.Lock()
			res.LoginFailures++
			mu.Unlock()
			return
		}
		mu.Lock()
		active++
		res.Sessions++
		mu.Unlock()
		defer func() {
			mu.Lock()
			active--
			mu.Unlock()
		}()

		remaining := sessions.Duration()
		for remaining > 0 {
			pick := channelIDs[zipf.Pick()]
			_ = c.Watch(pick) // rejections (rare) just mean another zap
			gap := sessions.ZapGap()
			if gap > remaining {
				gap = remaining
			}
			sys.Sched.Sleep(gap)
			remaining -= gap
			if !sys.Sched.Now().Before(end) {
				return
			}
		}
	}

	// Arrival driver.
	sys.Sched.Go(func() {
		for {
			now := sys.Sched.Now()
			if !now.Before(end) {
				return
			}
			gap := arrivals.Next(now)
			sys.Sched.Sleep(gap)
			if !sys.Sched.Now().Before(end) {
				return
			}
			mu.Lock()
			hostSeq++
			host := hostSeq
			mu.Unlock()
			email := fmt.Sprintf("user%05d@example.com", wlRng.Intn(cfg.Users))
			addr := geo.Addr(100, 1+host%40, 1000+host)
			// The session key folds in the arrival sequence so repeat
			// sessions by one account get distinct trace identities. The
			// sequence is assigned by the single arrival driver on the
			// control scheduler — identical at any shard count.
			traceKey := fmt.Sprintf("%s#%d", email, host)
			sys.Sched.Go(func() { runSession(email, addr, traceKey) })
		}
	})

	eng.Run(end)
	sys.StopAll()
	res.Observed = ob.finish()
	res.VirtualRenewals, res.VirtualChurned, res.VirtualEvictions = popTotals(pops)
	return res, nil
}

// FigureSeries is one Fig. 5 panel: hourly medians for the rounds plus
// the concurrent-user series.
type FigureSeries struct {
	Rounds map[feedback.Round][]feedback.HourlyPoint
}

// Fig5 extracts the per-hour medians for the requested rounds.
func (r *WeekResult) Fig5(rounds ...feedback.Round) FigureSeries {
	out := FigureSeries{Rounds: make(map[feedback.Round][]feedback.HourlyPoint, len(rounds))}
	for _, rd := range rounds {
		out.Rounds[rd] = r.Corpus.Hourly(rd, r.Start, r.Hours)
	}
	return out
}

// Fig6Split returns peak (18–24h) and off-peak (0–18h) latency samples
// for one round.
func (r *WeekResult) Fig6Split(round feedback.Round) (peak, off []time.Duration) {
	peak = r.Corpus.Latencies(round, r.Start, 18, 24)
	off = r.Corpus.Latencies(round, r.Start, 0, 18)
	return peak, off
}

// Correlations computes the paper's Pearson r per round (§VI: −0.03…0.08
// for login/switch, 0.13 for join).
func (r *WeekResult) Correlations() map[feedback.Round]float64 {
	out := make(map[feedback.Round]float64, len(feedback.Rounds))
	for _, rd := range feedback.Rounds {
		out[rd] = feedback.PearsonHourly(r.Corpus.Hourly(rd, r.Start, r.Hours))
	}
	return out
}
