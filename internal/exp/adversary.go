package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/conform"
	"p2pdrm/internal/core"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
	"p2pdrm/internal/workload"
)

// AdversaryConfig parameterizes the adversarial DRM scenario: an honest
// audience watches a pay-per-view event while three attacks land in
// sequence — a key-leak re-key storm (the provider force-rotates the
// content key in bursts, §IV-E), a wave of free-riding joiners
// advertising zero serving capacity, and a flood of replayed expired /
// stolen / forged Channel Tickets. The rights-conformance oracle
// (internal/conform) must stay clean throughout: attacks may cost
// capacity or continuity, never rights.
type AdversaryConfig struct {
	Seed int64

	// FaultPartition severs 25% of honest viewers from the root for 20s
	// during the freeride phase: their feed must re-parent through other
	// viewers and the conformance verdict must stay clean.
	FaultPartition bool
}

// The attack schedule's fixed shape.
const (
	// advViewers is the honest audience; advFreeRiders zero-capacity
	// joiners arrive in the freeride phase.
	advViewers    = 12
	advFreeRiders = 6
	// advAttackers replay nodes each send advReplayPerAttacker
	// expired-ticket joins plus one stolen-ticket and one forged-ticket
	// join in the replay phase.
	advAttackers         = 5
	advReplayPerAttacker = 3
	// advPhaseLen is the length of each phase (baseline, keyleak,
	// freeride, replay).
	advPhaseLen = 75 * time.Second
	// advStormRekeys forced rotations spaced advStormEvery apart make up
	// the key-leak storm.
	advStormRekeys = 7
	advStormEvery  = 5 * time.Second
	// advTicketLifetime bounds Channel Tickets; short so blobs harvested
	// in the baseline phase are expired by the replay phase.
	advTicketLifetime = 90 * time.Second
	// FaultPartition's share of honest viewers and its length.
	advPartitionShare = 0.25
	advPartitionFor   = 20 * time.Second
)

// AdversaryResult reports the scenario outcome.
type AdversaryResult struct {
	Viewers    int
	FreeRiders int
	Attackers  int
	Frames     int64 // live frames delivered to the honest audience

	// Key-leak storm.
	ForcedRekeys int
	StormFails   int64 // decrypt failures inside the storm phase (races)

	// Free-riding wave: peer-side refusals and admits aggregated over
	// every serving peer, client-side typed watch failures, and how many
	// free-riders ended up watching.
	FreeRiderRefusals  int64
	FreeRiderAdmits    int64
	FreeRiderDenied    map[string]int64
	FreeRidersWatching int

	// Replay flood: every attempt must come back typed, none accepted.
	ReplayAttempts int64
	ReplayAccepted int64
	ReplayOutcomes map[string]int64 // by wire code name

	Partitioned int

	Ring    keys.RingStats
	Conform *conform.Report

	// Observed phases: baseline → keyleak → freeride → replay.
	Observed
}

// Fingerprint digests every counter into one line; two runs with the
// same seed must match byte-for-byte.
func (r *AdversaryResult) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d fr=%d atk=%d frames=%d rekeys=%d stormfail=%d",
		r.Viewers, r.FreeRiders, r.Attackers, r.Frames, r.ForcedRekeys, r.StormFails)
	fmt.Fprintf(&b, " frref=%d fradm=%d frwatch=%d",
		r.FreeRiderRefusals, r.FreeRiderAdmits, r.FreeRidersWatching)
	for _, code := range sortedKeys(r.FreeRiderDenied) {
		fmt.Fprintf(&b, " frdeny.%s=%d", code, r.FreeRiderDenied[code])
	}
	fmt.Fprintf(&b, " replay=%d acc=%d", r.ReplayAttempts, r.ReplayAccepted)
	for _, code := range sortedKeys(r.ReplayOutcomes) {
		fmt.Fprintf(&b, " rep.%s=%d", code, r.ReplayOutcomes[code])
	}
	fmt.Fprintf(&b, " part=%d ring=%d/%d/%d/%d", r.Partitioned, r.Ring.Lookups,
		r.Ring.Misses, r.Ring.MissesEvicted, r.Ring.MissesInWindow)
	fmt.Fprintf(&b, " conform[%s]", r.Conform.Summary())
	fmt.Fprintf(&b, " sent=%d drop=%d", r.Net.Sent, r.Net.Dropped)
	for _, name := range sortedCallNames(r.Calls) {
		s := r.Calls[name]
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", name, s.Attempts, s.Retries, s.Failures, s.Overloads)
	}
	return b.String()
}

// RunAdversary runs the adversarial DRM scenario.
func RunAdversary(cfg AdversaryConfig) (*AdversaryResult, error) {
	// Grace covers the overlay's eviction slack (see RunTimeShift); the
	// natural rekey interval is pushed past the run so the storm owns
	// every rotation.
	oracle := conform.New(conform.Config{Grace: 12 * time.Second, MaxViolations: 64})
	var sys *core.System
	sys, ob, err := observe(8192, core.Options{
		Seed:                  cfg.Seed,
		Partitions:            []string{"live"},
		RekeyInterval:         10 * time.Minute,
		PacketInterval:        time.Second,
		RootRegion:            100,
		RootMaxChildren:       4, // a real tree: most viewers peer off other viewers
		ChannelTicketLifetime: advTicketLifetime,
		OnRekey: func(_ string, serial keys.Serial) {
			oracle.RecordRekey(serial, sys.Sched.Now())
		},
	})
	if err != nil {
		return nil, err
	}
	start := sys.Sched.Now()
	phase := func(n int) time.Time { return start.Add(time.Duration(n) * advPhaseLen) }
	deadline := phase(4)
	eventEnd := deadline.Add(10 * time.Minute)

	if err := sys.DeployChannel(core.PPVChannel("ppv", "PPV Event", "evt", start, eventEnd, "100")); err != nil {
		return nil, err
	}
	rootAddr := sys.Servers["ppv"].Addr()

	var mu sync.Mutex
	res := &AdversaryResult{
		Viewers:         advViewers,
		FreeRiders:      advFreeRiders,
		Attackers:       advAttackers,
		FreeRiderDenied: make(map[string]int64),
		ReplayOutcomes:  make(map[string]int64),
	}

	ob.start(5*time.Second, deadline, []PhaseBoundary{
		{Name: "baseline", At: start},
		{Name: "keyleak", At: phase(1)},
		{Name: "freeride", At: phase(2)},
		{Name: "replay", At: phase(3)},
	})

	total := advViewers + advFreeRiders
	names := make([]string, total)
	for i := 0; i < total; i++ {
		if i < advViewers {
			names[i] = fmt.Sprintf("adv%03d@e", i)
		} else {
			names[i] = fmt.Sprintf("rider%03d@e", i-advViewers)
		}
		if _, err := sys.RegisterUser(names[i], "pw"); err != nil {
			return nil, err
		}
		// Free-riders hold real rights — their attack is on capacity, not
		// entitlement; refusing them is resource policy, not DRM.
		if err := sys.PurchasePPV(names[i], "evt", start, eventEnd); err != nil {
			return nil, err
		}
		oracle.AddRight(names[i], start, eventEnd)
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	honestOffsets := workload.FlashCrowd(rng, advViewers, 20*time.Second)
	riderOffsets := workload.FlashCrowd(rng, advFreeRiders, 20*time.Second)
	addrs := make([]simnet.Addr, total)
	for i := range addrs {
		addrs[i] = geo.Addr(100, 1+i%40, i+1)
	}

	// Chaos knob: sever a share of honest viewers from the root during
	// the freeride phase; their feed must re-parent through other viewers.
	var partitioned []int
	if cfg.FaultPartition {
		partitioned = workload.PickSubset(rng, advViewers, int(float64(advViewers)*advPartitionShare))
		var partAddrs []simnet.Addr
		for _, i := range partitioned {
			partAddrs = append(partAddrs, addrs[i])
		}
		sys.Net.SchedulePartition(partAddrs, []simnet.Addr{rootAddr},
			phase(2).Add(35*time.Second), advPartitionFor)
	}
	res.Partitioned = len(partitioned)

	stormStart, stormEnd := phase(1), phase(2)
	clients := make([]*client.Client, total)
	for i := 0; i < total; i++ {
		i := i
		name := names[i]
		rider := i >= advViewers
		c, err := ob.client(name, addrs[i], name, func(cc *client.Config) {
			if rider {
				cc.PeerCapacity = -1 // declared free-rider
			}
			cc.OnFrame = func(seq uint64, _ []byte) {
				mu.Lock()
				res.Frames++
				mu.Unlock()
			}
			cc.OnDecrypt = func(serial keys.Serial, seq uint64, err error) {
				now := sys.Sched.Now()
				oracle.RecordDecrypt(name, serial, seq, now, err == nil)
				if err != nil && !now.Before(stormStart) && now.Before(stormEnd) {
					mu.Lock()
					res.StormFails++
					mu.Unlock()
				}
			}
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c

		var arrive time.Duration
		if rider {
			arrive = advPhaseLen*2 + riderOffsets[i-advViewers]
		} else {
			arrive = honestOffsets[i]
		}
		sys.Sched.Go(func() {
			sys.Sched.Sleep(arrive)
			backoff := 2 * time.Second
			for sys.Sched.Now().Before(deadline) {
				err := c.Login()
				if err == nil {
					err = c.Watch("ppv")
				}
				if err == nil {
					exp := time.Time{}
					if ct := c.ChannelTicket(); ct != nil {
						exp = ct.Expiry
					}
					oracle.RecordAdmit(name, sys.Sched.Now(), exp)
					return
				}
				var serr *wire.ServiceError
				if errors.As(err, &serr) {
					oracle.RecordDeny(name, sys.Sched.Now(), serr.Code)
					if rider {
						mu.Lock()
						res.FreeRiderDenied[serr.Code.String()]++
						mu.Unlock()
					}
					if serr.Code == wire.CodeDenied {
						return // rights refused — final
					}
				}
				sys.Sched.Sleep(backoff + time.Duration(sys.Sched.Float64()*float64(time.Second)))
				if backoff *= 2; backoff > 15*time.Second {
					backoff = 15 * time.Second
				}
			}
		})
	}

	// Key-leak storm: the provider's emergency response to a leaked
	// content key — forced rotations with no advance distribution.
	for k := 0; k < advStormRekeys; k++ {
		k := k
		sys.Sched.At(phase(1).Add(3*time.Second+time.Duration(k)*advStormEvery), func() {
			if _, err := sys.Servers["ppv"].ForceRekey(); err == nil {
				mu.Lock()
				res.ForcedRekeys++
				mu.Unlock()
			}
		})
	}

	// Harvest a Channel Ticket blob early; by the replay phase it is
	// expired and every replay of it must be refused with the typed code.
	var staleBlob []byte
	sys.Sched.At(start.Add(35*time.Second), func() {
		if b := clients[0].ChannelTicketBlob(); len(b) > 0 {
			staleBlob = append([]byte(nil), b...)
		}
	})

	// Replay flood: attacker nodes present expired, stolen, and forged
	// tickets straight at the root's join endpoint.
	frng := rand.New(rand.NewSource(cfg.Seed + 7))
	garbage := make([]byte, 64)
	frng.Read(garbage)
	for a := 0; a < advAttackers; a++ {
		a := a
		node := sys.Net.NewNode(geo.Addr(100, 90, 500+a))
		sys.Sched.At(phase(3).Add(5*time.Second+time.Duration(a)*2*time.Second), func() {
			sys.Sched.Go(func() {
				rawJoin := func(blob []byte) {
					mu.Lock()
					res.ReplayAttempts++
					mu.Unlock()
					req := &wire.JoinReq{ChannelTicket: blob, Capacity: 4}
					t := svc.Plain{Node: node, Timeout: 10 * time.Second}
					resp, err := svc.Invoke(t, rootAddr, wire.SvcJoin, req, wire.DecodeJoinResp)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err != nil:
						res.ReplayOutcomes["transport_error"]++
					case resp.Accept:
						res.ReplayAccepted++
					default:
						res.ReplayOutcomes[resp.Code.String()]++
					}
				}
				for r := 0; r < advReplayPerAttacker; r++ {
					rawJoin(staleBlob) // expired: harvested in baseline
					sys.Sched.Sleep(3 * time.Second)
				}
				// Stolen: a live viewer's current ticket from our address.
				if b := clients[1+a%(advViewers-1)].ChannelTicketBlob(); len(b) > 0 {
					rawJoin(append([]byte(nil), b...))
				}
				rawJoin(garbage) // forged
			})
		})
	}

	sys.Sched.RunUntil(deadline.Add(30 * time.Second))
	sys.StopAll()

	// Peer-side free-rider accounting: every serving peer, root included.
	rs := sys.Servers["ppv"].Peer().Stats()
	res.FreeRiderRefusals += rs.FreeRidersRefused
	res.FreeRiderAdmits += rs.FreeRiderJoins
	for i, c := range clients {
		if p := c.Peer(); p != nil {
			ps := p.Stats()
			res.FreeRiderRefusals += ps.FreeRidersRefused
			res.FreeRiderAdmits += ps.FreeRiderJoins
			ring := p.Ring().Stats()
			res.Ring.Lookups += ring.Lookups
			res.Ring.Misses += ring.Misses
			res.Ring.MissesEvicted += ring.MissesEvicted
			res.Ring.MissesInWindow += ring.MissesInWindow
			if ring.DeepestMiss > res.Ring.DeepestMiss {
				res.Ring.DeepestMiss = ring.DeepestMiss
			}
			if i >= advViewers && c.Watching() != "" {
				res.FreeRidersWatching++
			}
		}
	}
	res.Conform = oracle.Finish()
	res.Observed = ob.finish()
	return res, nil
}

// RenderAdversary prints the scenario: per-attack outcomes and the
// conformance verdict.
func RenderAdversary(res *AdversaryResult) string {
	var b strings.Builder
	b.WriteString("Adversarial DRM — re-key storm, free-riders, ticket replay\n")
	fmt.Fprintf(&b, "  honest viewers %d — %d live frames delivered\n", res.Viewers, res.Frames)
	if res.Partitioned > 0 {
		fmt.Fprintf(&b, "  chaos: %d viewers partitioned from the root mid-run\n", res.Partitioned)
	}
	fmt.Fprintf(&b, "  key-leak storm: %d forced rotations, %d decrypt races absorbed\n",
		res.ForcedRekeys, res.StormFails)
	fmt.Fprintf(&b, "  free-riders: %d arrived, %d joins refused (contributor reservation), %d admitted, %d watching\n",
		res.FreeRiders, res.FreeRiderRefusals, res.FreeRiderAdmits, res.FreeRidersWatching)
	for _, code := range sortedKeys(res.FreeRiderDenied) {
		fmt.Fprintf(&b, "    watch refused: %s ×%d\n", code, res.FreeRiderDenied[code])
	}
	fmt.Fprintf(&b, "  replay flood: %d joins presented, %d accepted\n", res.ReplayAttempts, res.ReplayAccepted)
	for _, code := range sortedKeys(res.ReplayOutcomes) {
		fmt.Fprintf(&b, "    refused: %s ×%d\n", code, res.ReplayOutcomes[code])
	}
	cr := res.Conform
	fmt.Fprintf(&b, "  conformance: %d decrypts (%d ok) — false grants %d, false denials %d, window breaches %d, ticket overruns %d\n",
		cr.Decrypts, cr.DecryptOK, cr.FalseGrants, cr.FalseDenials, cr.WindowBreaches, cr.TicketOverruns)
	fmt.Fprintf(&b, "               rekey races %d, settle %d, window denials %d (innocent)\n",
		cr.RekeyRaceDenials, cr.SettleDenials, cr.WindowDenials)
	if !cr.Clean() {
		b.WriteString("  CONFORMANCE VIOLATIONS:\n")
		for _, v := range cr.Violations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
	}
	fmt.Fprintf(&b, "  ring: %d lookups, %d misses (%d evicted / %d in-window)\n",
		res.Ring.Lookups, res.Ring.Misses, res.Ring.MissesEvicted, res.Ring.MissesInWindow)
	fmt.Fprintf(&b, "  network: %d messages sent, %d dropped\n", res.Net.Sent, res.Net.Dropped)
	if len(res.Phases) > 0 {
		b.WriteString(RenderPhases(res.Phases))
	}
	b.WriteString("(attacks cost capacity and continuity, never rights: every replayed,\n")
	b.WriteString(" stolen, or forged ticket is refused with a typed code)\n")
	return b.String()
}
