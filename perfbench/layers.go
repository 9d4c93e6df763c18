package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"p2pdrm/internal/client"
	"p2pdrm/internal/core"
	"p2pdrm/internal/obs"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/svc"
)

// traceRingCap holds every span of a traced week or flashcrowd run, so
// the critical paths are complete (obs.spans_dropped reports it if not).
const traceRingCap = 1 << 19

// expService draws exponential manager service times with mean meanMS,
// from its own stream so the capacity model never consumes the
// scheduler's randomness.
func expService(rng *rand.Rand, meanMS float64) func() time.Duration {
	var mu sync.Mutex
	return func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(rng.ExpFloat64() * meanMS * float64(time.Millisecond))
	}
}

// viewerNames are the simulated end-user metrics, in print order.
var viewerNames = []string{
	"login_p50_ms", "login_p95_ms",
	"switch_p50_ms", "switch_p95_ms",
	"first_frame_p50_ms", "first_frame_p95_ms",
}

// viewerMetrics turns the per-operation latencies into the viewer
// metrics; a nil collector reports no samples (the operation is not
// part of the workload).
func viewerMetrics(logins, switches, frames *latencies) simSet {
	var out simSet
	for i, l := range []*latencies{logins, switches, frames} {
		if l == nil {
			l = &latencies{}
		}
		out = append(out,
			metric{Name: viewerNames[2*i], Unit: "ms", Value: l.percentileMS(0.50), N: l.n()},
			metric{Name: viewerNames[2*i+1], Unit: "ms", Value: l.percentileMS(0.95), N: l.n()})
	}
	return out
}

// addPeerStats folds one overlay peer's counters into dst (nil-safe:
// a client that is not watching has no peer).
func addPeerStats(dst *p2p.Stats, p *p2p.Peer) {
	if p == nil {
		return
	}
	s := p.Stats()
	dst.PacketsReceived += s.PacketsReceived
	dst.PacketsForwarded += s.PacketsForwarded
	dst.PacketsDelivered += s.PacketsDelivered
	dst.PacketsDuplicate += s.PacketsDuplicate
	dst.KeysForwarded += s.KeysForwarded
	dst.JoinsAccepted += s.JoinsAccepted
	dst.JoinsRejected += s.JoinsRejected
}

// systemCounts reads every per-layer count a deployment exposes through
// its public getters. peers carries the client overlay counters the
// workload collected as peers came and went; the channel roots are
// added here.
func systemCounts(sys *core.System, clients []*client.Client, peers p2p.Stats, pendingPeak int) simSet {
	ids := make([]string, 0, len(sys.Servers))
	for id := range sys.Servers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		addPeerStats(&peers, sys.Servers[id].Peer())
	}

	var ep svc.Metrics
	for _, m := range sys.EndpointTotals() {
		ep.Requests += m.Requests
		ep.Errors += m.Errors
		ep.Shed += m.Shed
	}
	var calls svc.CallStats
	var cs client.Stats
	for _, c := range clients {
		st := c.Stats()
		cs.Logins += st.Logins
		cs.Switches += st.Switches
		cs.Renewals += st.Renewals
		cs.Restarts += st.Restarts
		cs.ShardRetries += st.ShardRetries
		for _, s := range c.Policy().Stats() {
			calls.Attempts += s.Attempts
			calls.Retries += s.Retries
			calls.Failures += s.Failures
			calls.Overloads += s.Overloads
		}
	}
	var login1, login2, wrongShard int64
	for _, m := range sys.UserMgrs {
		st := m.Stats()
		login1 += st.Login1Served
		login2 += st.Login2Served
		wrongShard += st.WrongShard
	}
	var switch1, issued, denials int64
	for _, farm := range sys.ChanMgrs {
		for _, m := range farm {
			st := m.Stats()
			switch1 += st.Switch1Served
			issued += st.TicketsIssued
			denials += st.Denials
		}
	}
	var handoffs, moved int64
	if sys.UMShard != nil {
		st := sys.UMShard.Stats()
		handoffs, moved = st.Handoffs, st.KeysMoved
	}
	dup := 0.0
	if peers.PacketsReceived > 0 {
		dup = float64(peers.PacketsDuplicate) / float64(peers.PacketsReceived)
	}
	net := sys.Net.Stats()
	return simSet{
		count("sim.pending_peak", int64(pendingPeak)),
		count("simnet.sent", net.Sent),
		count("simnet.delivered", net.Delivered),
		count("simnet.dropped", net.Dropped),
		count("svc.requests", ep.Requests),
		count("svc.errors", ep.Errors),
		count("svc.shed", ep.Shed),
		count("svc.queue_high_water", int64(sys.ManagerQueueHighWater())),
		count("svc.attempts", calls.Attempts),
		count("svc.retries", calls.Retries),
		count("svc.failures", calls.Failures),
		count("svc.overloads", calls.Overloads),
		count("svc.handoffs", handoffs),
		count("svc.keys_moved", moved),
		count("usermgr.login1", login1),
		count("usermgr.login2", login2),
		count("usermgr.wrong_shard", wrongShard),
		count("channelmgr.switch1", switch1),
		count("channelmgr.tickets_issued", issued),
		count("channelmgr.denials", denials),
		count("p2p.joins_accepted", peers.JoinsAccepted),
		count("p2p.joins_rejected", peers.JoinsRejected),
		count("p2p.packets_forwarded", peers.PacketsForwarded),
		count("p2p.packets_delivered", peers.PacketsDelivered),
		{Name: "p2p.dup_ratio", Unit: "ratio", Value: dup, N: int(peers.PacketsReceived)},
		count("p2p.keys_forwarded", peers.KeysForwarded),
		count("client.logins", cs.Logins),
		count("client.switches", cs.Switches),
		count("client.renewals", cs.Renewals),
		count("client.restarts", cs.Restarts),
		count("client.shard_retries", cs.ShardRetries),
	}
}

func count(name string, v int64) metric { return metric{Name: name, Unit: "count", Value: float64(v)} }

// stageNames are the client journey stages whose simulated p95 the
// traced run reports, in protocol order.
var stageNames = []string{"redirect", "login1", "login2", "chanlist", "switch1", "switch2", "join"}

// spanMetrics reads a traced run's span ring: how many spans it kept
// and dropped, and per-stage p95s over every journey's critical path.
// A stage closed by a retry (wrong_shard, restart) still spent its
// time, so every stage duration counts whatever its outcome.
func spanMetrics(ring *obs.Trace) simSet {
	stages := make(map[string]*latencies, len(stageNames))
	for _, s := range stageNames {
		stages[s] = &latencies{}
	}
	var firstKey latencies
	for _, cp := range obs.CriticalPaths(ring.Spans()) {
		for _, st := range cp.Stages {
			l := stages[st.Name]
			if l == nil {
				continue
			}
			l.add(st.Duration)
		}
		if d, ok := cp.Marks["first_key"]; ok {
			firstKey.add(d)
		}
	}
	out := simSet{
		count("obs.spans", int64(ring.Len())),
		count("obs.spans_dropped", ring.Dropped()),
	}
	for _, s := range stageNames {
		l := stages[s]
		out = append(out, metric{Name: "client.stage." + s + "_p95_ms", Unit: "ms", Value: l.percentileMS(0.95), N: l.n()})
	}
	out = append(out, metric{Name: "client.first_key_p95_ms", Unit: "ms", Value: firstKey.percentileMS(0.95), N: firstKey.n()})
	return out
}
