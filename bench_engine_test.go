// Engine benchmarks: the discrete-event core's real CPU cost per
// simulated operation (E9). These are the denominators behind every other
// experiment — events/sec bounds the population sizes the §V/§VI studies
// can reach, and allocs/event bounds how long a week-scale run can go
// before GC dominates.
package bench

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"
	"time"

	"p2pdrm/internal/chserver"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/exp"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
)

// BenchmarkSchedulerThroughput measures raw schedule+fire cost: a single
// event chain where each firing schedules its successor. ns/op is the
// full per-event lifecycle (allocate, push, pop, dispatch).
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			s.After(time.Millisecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.After(time.Millisecond, fn)
	s.Run()
	if n != b.N {
		b.Fatalf("fired %d events, want %d", n, b.N)
	}
}

// BenchmarkSchedulerFanout measures a wide heap: 1024 events live at all
// times, each firing schedules a replacement. Exercises sift cost at
// realistic pending-event populations.
func BenchmarkSchedulerFanout(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	const width = 1024
	n := 0
	var fn func()
	fn = func() {
		n++
		if n+width <= b.N {
			s.After(time.Duration(1+n%7)*time.Millisecond, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width && i < b.N; i++ {
		s.After(time.Duration(1+i%7)*time.Millisecond, fn)
	}
	s.Run()
}

// BenchmarkSchedulerFanoutDeep measures the timer-wheel tier at viewer-
// scale pending populations: `width` events live at all times with
// delays spread from milliseconds to minutes (the renewal/eviction/
// sampler mix), each firing scheduling a replacement. On the pure
// binary heap every schedule+fire paid O(log width) pointer-chasing
// sifts across the whole future; the wheel files far events in O(1)
// and only ever heapifies the band that is due.
func BenchmarkSchedulerFanoutDeep(b *testing.B) {
	for _, width := range []int{16384, 131072, 524288, 2097152} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
			// Deterministic delay mix spanning every wheel level: 1ms..~10min.
			delay := func(i int) time.Duration {
				return time.Millisecond + time.Duration(i*2654435761%600_000)*time.Millisecond
			}
			n := 0
			var fn func()
			fn = func() {
				n++
				if n+width <= b.N {
					s.After(delay(n), fn)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < width && i < b.N; i++ {
				s.After(delay(i), fn)
			}
			s.Run()
		})
	}
}

// BenchmarkSchedulerSleepDeep measures the Sleep path while a large
// background timer population (renewal-class, minutes out) is pending —
// the engine state a million-viewer run sleeps inside. The background
// timers live in the wheel, so each Sleep's schedule+fire works against
// a near-empty heap instead of sifting through the whole population.
func BenchmarkSchedulerSleepDeep(b *testing.B) {
	const background = 262144
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	for i := 0; i < background; i++ {
		d := 3*time.Hour + time.Duration(i*2654435761%600_000)*time.Millisecond
		s.After(d, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	s.RunUntil(s.Now().Add(3*time.Hour - time.Minute))
	b.StopTimer()
	s.Stop()
}

// BenchmarkSchedulerSleep measures the park/unpark path: one simulated
// goroutine sleeping b.N times. Before the reusable parker this cost a
// fresh channel plus a wakeup closure per Sleep.
func BenchmarkSchedulerSleep(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	s.Run()
}

// BenchmarkSchedulerTimerStop measures the cancelled-timer path that
// dominates RPC-heavy runs: every Call schedules a timeout it almost
// always cancels. The dead-event purge keeps the heap from accreting.
func BenchmarkSchedulerTimerStop(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Hour, func() {})
		tm.Stop()
	}
	b.StopTimer()
	s.Stop()
}

// BenchmarkSchedulerPending measures Pending() with 16k live events —
// O(1) with the live counter, a full heap scan before it.
func BenchmarkSchedulerPending(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	for i := 0; i < 16384; i++ {
		s.After(time.Duration(i+1)*time.Second, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += s.Pending()
	}
	b.StopTimer()
	if n == 0 {
		b.Fatal("no pending events")
	}
	s.Stop()
}

// BenchmarkSimnetRPC measures one round-trip RPC between two nodes over
// the simulated link: transmit, handler dispatch, reply delivery. This is
// the per-message cost every protocol round pays.
func BenchmarkSimnetRPC(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	srv := net.NewNode("server")
	svc.RegisterRaw(svc.NewRuntime(srv), "echo", func(_ simnet.Addr, payload []byte) ([]byte, error) {
		return payload, nil
	})
	cli := net.NewNode("client")
	req := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			if _, err := cli.Call("server", "echo", req, 10*time.Second); err != nil {
				b.Errorf("call: %v", err)
				return
			}
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+1) * time.Minute))
}

// BenchmarkEngineWeekAcceleration runs a miniature diurnal trace and
// reports the virtual-time acceleration ratio (virtual seconds simulated
// per real second) — the engine's headline figure of merit. Every
// iteration reruns seed 1, so each starts with an empty ticket signature
// memo rather than inheriting the previous run's hits.
func BenchmarkEngineWeekAcceleration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ticket.ResetVerifyMemo()
		_, err := exp.RunWeek(exp.WeekConfig{
			Seed:                1,
			Days:                1,
			Channels:            3,
			Users:               30,
			PeakSessionsPerHour: 20,
			MeanSession:         15 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	virtual := float64(b.N) * 24 * 3600
	b.ReportMetric(virtual/b.Elapsed().Seconds(), "virtual-s/real-s")
}

// BenchmarkEngineWeekTraced is BenchmarkEngineWeekAcceleration with
// causal tracing armed on every session (TraceEvery 1) — the worst-case
// tracing load. benchjson records this wall clock over the untraced
// one as trace_overhead; the budget is ≤ 1.05 (5%).
func BenchmarkEngineWeekTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ticket.ResetVerifyMemo()
		_, err := exp.RunWeek(exp.WeekConfig{
			Seed:                1,
			Days:                1,
			Channels:            3,
			Users:               30,
			PeakSessionsPerHour: 20,
			MeanSession:         15 * time.Minute,
			TraceEvery:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	virtual := float64(b.N) * 24 * 3600
	b.ReportMetric(virtual/b.Elapsed().Seconds(), "virtual-s/real-s")
}

// BenchmarkContentFanout measures the batched content path end-to-end:
// the root seals one frame into a single exact-size buffer (header +
// in-place SealAppend) and relays that buffer over every subscribed edge
// with no per-edge re-encode; each child then receives, dedups, and
// decrypts. One op is one produced packet across 16 edges.
func BenchmarkContentFanout(b *testing.B) {
	const children = 16
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(11)
	cmKeys, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		b.Fatal(err)
	}
	srvKeys, err := cryptoutil.NewKeyPair(rng)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := chserver.New(net.NewNode("root.bench"), chserver.Config{
		ChannelID:   "bench",
		ChanMgrKey:  cmKeys.Public(),
		Keys:        srvKeys,
		PacketSize:  1024,
		Substreams:  1, // every child subscribes every packet
		MaxChildren: children,
		RNG:         rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	for i := 0; i < children; i++ {
		addr := geo.Addr(100, 1, i+1)
		kp, err := cryptoutil.NewKeyPair(rng)
		if err != nil {
			b.Fatal(err)
		}
		peer, err := p2p.NewPeer(net.NewNode(addr), p2p.Config{
			ChannelID:  "bench",
			ChanMgrKey: cmKeys.Public(),
			Keys:       kp,
			RNG:        rng,
			OnPacket:   func(uint64, []byte) { delivered++ },
		})
		if err != nil {
			b.Fatal(err)
		}
		ct := &ticket.ChannelTicket{
			UserIN: uint64(i + 1), ChannelID: "bench", NetAddr: string(addr),
			ClientKey: kp.Public(), Start: s.Now(), Expiry: s.Now().Add(24 * 365 * time.Hour),
		}
		peer.SetTicket(ticket.SignChannel(ct, cmKeys))
		s.Go(func() {
			if err := peer.JoinParent("root.bench", nil, 0); err != nil {
				b.Errorf("join: %v", err)
			}
		})
	}
	s.RunUntil(s.Now().Add(time.Second)) // complete the joins
	srv.Peer().InjectKey(srv.CurrentKey())
	s.RunUntil(s.Now().Add(time.Second)) // distribute the key
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			srv.EmitOne()
			s.Sleep(5 * time.Millisecond) // drain deliveries before the next packet
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+2) * 10 * time.Millisecond))
	b.StopTimer()
	if delivered != b.N*children {
		b.Fatalf("delivered %d packets, want %d", delivered, b.N*children)
	}
	b.ReportMetric(children, "edges")
	s.Stop()
}

// BenchmarkEngineScaleOut runs the elastic-farm sweep — a flash crowd
// growing 10× with members added live via consistent-hash resharding —
// and reports the worst per-phase login p95 and the p95 spread next to
// the wall clock, so a regression in the sharded serving path shows up
// in the benchmark artifact, not just in the scenario's golden test.
func BenchmarkEngineScaleOut(b *testing.B) {
	var worst time.Duration
	var spread float64
	for i := 0; i < b.N; i++ {
		ticket.ResetVerifyMemo()
		res, err := exp.RunScaleOut(exp.ScaleOutConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		worst, spread = 0, res.P95Spread()
		for _, ph := range res.PhaseStats {
			if ph.LoginP95 > worst {
				worst = ph.LoginP95
			}
		}
	}
	b.ReportMetric(float64(worst.Microseconds())/1000, "login-p95-ms")
	b.ReportMetric(spread, "p95-spread")
}

// BenchmarkEngineMegaScale runs the full million-viewer scenario: a real
// overlay tree plus 1M virtual viewers, each holding a renewal timer and
// an eviction sentinel on the timer wheel, with metrics streamed (not
// retained) so the heap stays bounded. Override the population with
// MEGA_VIEWERS for smoke runs; MEGA_SHARDS sets how many worker lanes
// the population stripes over (default 1; cmd/benchjson records the
// effective count, so every wall clock is labeled with its engine).
// One iteration is a complete scenario; run with -benchtime 1x (or
// small -benchtime) accordingly.
func BenchmarkEngineMegaScale(b *testing.B) {
	viewers := 1_000_000
	if s := os.Getenv("MEGA_VIEWERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			b.Fatalf("bad MEGA_VIEWERS %q", s)
		}
		viewers = n
	}
	shards := 1
	if s := os.Getenv("MEGA_SHARDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			b.Fatalf("bad MEGA_SHARDS %q", s)
		}
		shards = n
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ticket.ResetVerifyMemo()
		res, err := exp.RunMegaScale(exp.MegaConfig{
			Seed:         1,
			Viewers:      viewers,
			Shards:       shards,
			MetricsCSV:   io.Discard,
			MetricsJSONL: io.Discard,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s wall=%s", res.Fingerprint(), res.Wall.Round(time.Millisecond))
		}
	}
	b.ReportMetric(float64(viewers), "viewers")
}
