package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/conform"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/wire"
	"p2pdrm/internal/workload"
)

// Flash-crowd event: a pay-per-view channel, three arrival waves that
// take the crowd to 1×, 3× and 10× of the first, and a sharded User
// Manager farm that grows 2 → 4 → 7 members at the wave boundaries.
const (
	fcBase        = 40 // first-wave arrivals; the waves bring 40, 80 and 280
	fcWave        = 40 * time.Second
	fcWorkers     = 2
	fcServiceMS   = 80
	fcHighWater   = 4
	fcUnentitled  = 10 // one viewer in this many holds no purchase
	fcBuyAfter    = 200 * time.Second
	fcBuySpread   = 30 * time.Second
	fcEnd         = 300 * time.Second
	fcPacket      = 500 * time.Millisecond
	fcTicketLife  = 2 * time.Minute
	fcRelogin     = 30 * time.Second // re-login margin before User Ticket expiry
	fcRPCTimeout  = 3 * time.Second
	fcOracleGrace = 12 * time.Second
)

// waveNames label the three arrival waves by crowd size.
var waveNames = []string{"x1", "x3", "x10"}

// fcViewer is one generated viewer.
type fcViewer struct {
	wave     int
	arrive   time.Duration // scheduled arrival, from event start
	entitled bool          // purchased before the event
	buyAt    time.Duration // late purchase instant (0 = never buys)
}

// flashcrowdInputs draws the crowd from the seed: flash-crowd arrival
// offsets per wave, which viewers hold no purchase, and which of those
// buy mid-event and when.
func flashcrowdInputs(seed int64) []fcViewer {
	rng := rand.New(rand.NewSource(seed))
	var out []fcViewer
	for wave, n := range []int{fcBase, 2 * fcBase, 7 * fcBase} {
		length := fcWave
		if wave == 2 {
			length = 2 * fcWave
		}
		for _, off := range workload.FlashCrowd(rng, n, length/4) {
			out = append(out, fcViewer{wave: wave, arrive: time.Duration(wave)*fcWave + off, entitled: true})
		}
	}
	unentitled := workload.PickSubset(rng, len(out), len(out)/fcUnentitled)
	for _, i := range unentitled {
		out[i].entitled = false
	}
	for _, k := range workload.PickSubset(rng, len(unentitled), len(unentitled)/2) {
		out[unentitled[k]].buyAt = fcBuyAfter + time.Duration(rng.Int63n(int64(fcBuySpread)))
	}
	return out
}

// runFlashcrowd is one iteration of the flashcrowd workload.
func runFlashcrowd(seed int64, traced bool) (*iteration, error) {
	hostStart := time.Now()
	var ring *obs.Trace
	if traced {
		ring = obs.NewTrace(traceRingCap)
	}
	oracle := conform.New(conform.Config{Grace: fcOracleGrace, MaxViolations: 8})
	var sys *core.System
	sys, err := core.NewSystem(core.Options{
		Trace:       ring,
		Seed:        seed,
		UserMgrFarm: 2,
		Partitions:  []string{"live"},
		UserMgrShard: core.ShardOptions{
			Enabled:        true,
			LoginHighWater: fcHighWater,
		},
		UserMgrCapacity: core.CapacityModel{
			Workers: fcWorkers, ServiceTime: expService(rand.New(rand.NewSource(seed+3)), fcServiceMS),
		},
		UserTicketLifetime: fcTicketLife,
		PacketInterval:     fcPacket,
		RootRegion:         100,
		OnRekey: func(_ string, serial keys.Serial) {
			oracle.RecordRekey(serial, sys.Sched.Now())
		},
	})
	if err != nil {
		return nil, err
	}
	start := sys.Sched.Now()
	end := start.Add(fcEnd)
	eventEnd := end.Add(time.Hour)
	if err := sys.DeployChannel(core.PPVChannel("ppv", "PPV Event", "evt", start, eventEnd, "100")); err != nil {
		return nil, err
	}
	inputs := flashcrowdInputs(seed)
	names := make([]string, len(inputs))
	for i, v := range inputs {
		names[i] = fmt.Sprintf("v%05d@e", i)
		if _, err := sys.RegisterUser(names[i], "pw"); err != nil {
			return nil, err
		}
		if v.entitled {
			if err := sys.PurchasePPV(names[i], "evt", start, eventEnd); err != nil {
				return nil, err
			}
			oracle.AddRight(names[i], start, eventEnd)
		}
	}
	for wave, adds := range []int{0, 2, 3} {
		if adds == 0 {
			continue
		}
		sys.Sched.At(start.Add(time.Duration(wave)*fcWave), func() {
			for a := 0; a < adds; a++ {
				if _, err := sys.AddUserMgrMember(); err != nil {
					panic(fmt.Sprintf("perfbench: AddUserMgrMember: %v", err))
				}
			}
		})
	}

	// Per-viewer outcomes. Every callback and session runs on the
	// scheduler's run token, so none of this needs a lock.
	var logins latencies
	waves := make([]latencies, len(waveNames))
	var frames latencies
	playFrom := make([]time.Time, len(inputs)) // when the viewer became entitled to play (zero = not yet)
	played := make([]bool, len(inputs))
	refused := make([]bool, len(inputs))
	admittedEarly := 0 // unentitled viewers admitted before buying
	lateAdmitted := 0
	entitledDenied := 0
	var peers p2p.Stats
	pendingPeak := 0
	notePending := func() {
		if p := sys.Sched.Pending(); p > pendingPeak {
			pendingPeak = p
		}
	}

	clients := make([]*client.Client, len(inputs))
	for i := range inputs {
		i, v, name := i, inputs[i], names[i]
		c, err := sys.NewClient(name, "pw", geo.Addr(100, 1+i%40, i+1), func(cc *client.Config) {
			cc.RPCTimeout = fcRPCTimeout
			cc.RPCAttempts = 3
			cc.BreakerThreshold = 3
			cc.BreakerCooldown = 4 * time.Second
			if traced {
				cc.TraceID = obs.TraceIDFor(seed, name)
			}
			cc.OnFrame = func(uint64, []byte) {
				if !played[i] && !playFrom[i].IsZero() {
					played[i] = true
					frames.add(sys.Sched.Now().Sub(playFrom[i]))
				}
			}
			cc.OnDecrypt = func(serial keys.Serial, seq uint64, err error) {
				oracle.RecordDecrypt(name, serial, seq, sys.Sched.Now(), err == nil)
			}
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c
		if v.entitled {
			playFrom[i] = start.Add(v.arrive)
		}
		if v.buyAt > 0 {
			buy := start.Add(v.buyAt)
			sys.Sched.At(buy, func() {
				if err := sys.PurchasePPV(name, "evt", buy, eventEnd); err != nil {
					panic(fmt.Sprintf("perfbench: PurchasePPV: %v", err))
				}
				oracle.AddRight(name, buy, eventEnd)
			})
		}
		sys.Sched.Go(func() {
			sys.Sched.Sleep(v.arrive)
			arrive := sys.Sched.Now()
			notePending()
			if !loginUntil(sys, c, end) {
				logins.fail()
				waves[v.wave].fail()
				return
			}
			d := sys.Sched.Now().Sub(arrive)
			logins.add(d)
			waves[v.wave].add(d)
			for {
				addPeerStats(&peers, c.Peer())
				err := c.Watch("ppv")
				var serr *wire.ServiceError
				switch {
				case err == nil:
					exp := time.Time{}
					if ct := c.ChannelTicket(); ct != nil {
						exp = ct.Expiry
					}
					oracle.RecordAdmit(name, sys.Sched.Now(), exp)
					if !v.entitled && playFrom[i].IsZero() {
						admittedEarly++
					}
					if v.buyAt > 0 && !playFrom[i].IsZero() {
						lateAdmitted++
					}
					return
				case errors.As(err, &serr) && serr.Code == wire.CodeDenied:
					oracle.RecordDeny(name, sys.Sched.Now(), serr.Code)
					if playFrom[i].IsZero() {
						refused[i] = true
					} else {
						entitledDenied++
					}
				}
				if refused[i] && v.buyAt == 0 {
					return
				}
				if refused[i] && playFrom[i].IsZero() {
					// A late buyer waits for the purchase, then logs in
					// again so the new User Ticket carries it.
					sys.Sched.Sleep(start.Add(v.buyAt).Sub(sys.Sched.Now()) + time.Second)
					playFrom[i] = sys.Sched.Now()
					if !loginUntil(sys, c, end) {
						return
					}
					continue
				}
				if !sys.Sched.Now().Before(end) {
					return
				}
				sys.Sched.Sleep(2*time.Second + time.Duration(sys.Sched.Float64()*float64(time.Second)))
				if ut := c.UserTicket(); ut == nil || !sys.Sched.Now().Add(fcRelogin).Before(ut.Expiry) {
					if !loginUntil(sys, c, end) {
						return
					}
				}
			}
		})
	}
	setup := time.Since(hostStart)
	runStart := time.Now()
	sys.Sched.RunUntil(end)
	sys.StopAll()
	run := time.Since(runStart)

	for _, c := range clients {
		addPeerStats(&peers, c.Peer())
	}
	report := oracle.Finish()
	it := &iteration{Setup: setup, Run: run, spans: ring}
	lateBuyers, neverPlayed := 0, 0
	for i, v := range inputs {
		if !v.entitled && !refused[i] {
			it.gate("flashcrowd: unentitled viewer %s was never refused with %s", names[i], wire.CodeDenied)
		}
		if v.buyAt > 0 {
			lateBuyers++
		}
		if !playFrom[i].IsZero() && !played[i] {
			neverPlayed++
			frames.fail()
		}
	}
	if admittedEarly > 0 {
		it.gate("flashcrowd: %d unentitled viewers were admitted before buying", admittedEarly)
	}
	if lateAdmitted != lateBuyers {
		it.gate("flashcrowd: %d of %d late buyers were admitted", lateAdmitted, lateBuyers)
	}
	if entitledDenied > 0 {
		it.gate("flashcrowd: entitled viewers were refused %d times", entitledDenied)
	}
	if !report.Clean() {
		it.gate("flashcrowd: conformance oracle not clean: %s", report.Summary())
	}
	it.Sim = append(it.Sim, viewerMetrics(&logins, nil, &frames)...)
	for w, name := range waveNames {
		it.Sim = append(it.Sim, metric{Name: "usermgr.login_p95_ms." + name, Unit: "ms", Value: waves[w].percentileMS(0.95), N: waves[w].n()})
	}
	it.Sim = append(it.Sim, systemCounts(sys, clients, peers, pendingPeak)...)
	it.Sim = append(it.Sim,
		count("conform.decrypts", int64(report.Decrypts)),
		count("conform.violations", int64(report.FalseGrants+report.FalseDenials+report.WindowBreaches+report.TicketOverruns)),
	)
	// One login per viewer, one watch per viewer, and a second login and
	// watch per late buyer. Refusing an unentitled viewer is a success.
	it.Attempted = logins.n() + len(inputs) + 2*lateBuyers
	it.Failed = logins.failed + neverPlayed
	return it, nil
}

// loginUntil logs c in, retrying with capped exponential backoff until
// it succeeds or the scenario deadline passes.
func loginUntil(sys *core.System, c *client.Client, deadline time.Time) bool {
	backoff := 2 * time.Second
	for {
		if err := c.Login(); err == nil {
			return true
		}
		if !sys.Sched.Now().Before(deadline) {
			return false
		}
		sys.Sched.Sleep(backoff + time.Duration(sys.Sched.Float64()*float64(time.Second)))
		if backoff *= 2; backoff > 15*time.Second {
			backoff = 15 * time.Second
		}
	}
}
