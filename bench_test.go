// Package bench holds the benchmark harness: one benchmark per evaluation
// artifact (DESIGN.md's per-experiment index) plus component benchmarks
// for the mechanisms the design leans on. Latencies inside the simulator
// are virtual; these benchmarks measure the real CPU cost per protocol
// operation and regenerate each figure's machinery end-to-end.
//
// Run: go test -bench=. -benchmem
package bench

import (
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"p2pdrm/internal/attr"
	"p2pdrm/internal/core"
	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/exp"
	"p2pdrm/internal/feedback"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/keys"
	"p2pdrm/internal/p2p"
	"p2pdrm/internal/policy"
	"p2pdrm/internal/sectran"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/ticket"
	"p2pdrm/internal/trad"
	"p2pdrm/internal/workload"
)

// newBenchSystem builds a default deployment with one free channel and
// one registered account, content production disabled.
func newBenchSystem(b *testing.B) *core.System {
	b.Helper()
	sys, err := core.NewSystem(core.Options{
		Seed:           1,
		PacketInterval: 24 * 365 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.DeployChannel(core.FreeToView("bench", "Bench", "100")); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RegisterUser("bench@e", "pw"); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkFig5Login measures one full LOGIN1+LOGIN2 exchange (E1).
func BenchmarkFig5Login(b *testing.B) {
	sys := newBenchSystem(b)
	c, err := sys.NewClient("bench@e", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.Sched.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := c.Login(); err != nil {
				b.Errorf("login: %v", err)
				return
			}
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Duration(b.N+1) * time.Hour))
}

// BenchmarkFig5Switch measures one full SWITCH1+SWITCH2 exchange plus
// overlay join/leave (E2).
func BenchmarkFig5Switch(b *testing.B) {
	sys := newBenchSystem(b)
	c, err := sys.NewClient("bench@e", "pw", geo.Addr(100, 1, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	ready := false
	sys.Sched.Go(func() {
		if err := c.Login(); err != nil {
			b.Errorf("login: %v", err)
			return
		}
		ready = true
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Minute))
	if !ready {
		b.Fatal("login never completed")
	}
	b.ResetTimer()
	sys.Sched.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := c.Watch("bench"); err != nil {
				b.Errorf("watch: %v", err)
				return
			}
			c.StopWatching()
			// Keep the user ticket fresh across long bench runs.
			if i%50 == 49 {
				if err := c.Login(); err != nil {
					b.Errorf("relogin: %v", err)
					return
				}
			}
		}
	})
	sys.Sched.RunUntil(sys.Sched.Now().Add(time.Duration(b.N+1) * time.Hour))
}

// BenchmarkFig5Join measures the single-round peer JOIN (E3): Channel
// Ticket verification, session-key generation and sealing, content-key
// delivery.
func BenchmarkFig5Join(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	srvKeys, _ := cryptoutil.NewKeyPair(rng)
	root, err := newBenchPeer(net, "root", cmKeys, srvKeys, rng, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	_ = root
	addr := geo.Addr(100, 1, 1)
	cliKeys, _ := cryptoutil.NewKeyPair(rng)
	cli, err := newBenchPeer(net, addr, cmKeys, cliKeys, rng, 4)
	if err != nil {
		b.Fatal(err)
	}
	ct := &ticket.ChannelTicket{
		UserIN: 1, ChannelID: "bench", NetAddr: string(addr),
		ClientKey: cliKeys.Public(), Start: s.Now(), Expiry: s.Now().Add(1000 * time.Hour),
	}
	cli.SetTicket(ticket.SignChannel(ct, cmKeys))
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			if err := cli.JoinParent("root", nil, 0); err != nil {
				b.Errorf("join: %v", err)
				return
			}
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+1) * time.Minute))
}

// BenchmarkFig6CDF measures the Fig. 6 analysis over a 100k-sample
// corpus (E4).
func BenchmarkFig6CDF(b *testing.B) {
	corpus := syntheticCorpus(100000)
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak := corpus.Latencies(feedback.Join, start, 18, 24)
		off := corpus.Latencies(feedback.Join, start, 0, 18)
		_ = feedback.CDF(peak, 2*time.Second, 50)
		_ = feedback.CDF(off, 2*time.Second, 50)
	}
}

// BenchmarkPearson measures the correlation computation over a full
// week of hourly points (E5).
func BenchmarkPearson(b *testing.B) {
	corpus := syntheticCorpus(100000)
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := corpus.Hourly(feedback.Join, start, 168)
		_ = feedback.PearsonHourly(pts)
	}
}

// BenchmarkBaselineTraditional measures one per-file license acquisition
// against the central License Manager (E6's baseline unit cost).
func BenchmarkBaselineTraditional(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	if _, err := trad.New(net.NewNode("license"), trad.Config{RNG: cryptoutil.NewSeededReader(1)}); err != nil {
		b.Fatal(err)
	}
	cli := net.NewNode(geo.Addr(100, 1, 1))
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			if _, err := trad.RequestLicense(cli, "license", 1, fmt.Sprintf("f%d", i), 0); err != nil {
				b.Errorf("license: %v", err)
				return
			}
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+1) * time.Minute))
}

// BenchmarkKeyRotation measures one content-key rotation pushed through
// a root with 16 children (E7): generate, then per-child seal+send.
func BenchmarkKeyRotation(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	cmKeys, _ := cryptoutil.NewKeyPair(rng)
	rootKeys, _ := cryptoutil.NewKeyPair(rng)
	root, err := newBenchPeer(net, "root", cmKeys, rootKeys, rng, 64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		addr := geo.Addr(100, 1, i+1)
		kp, _ := cryptoutil.NewKeyPair(rng)
		p, err := newBenchPeer(net, addr, cmKeys, kp, rng, 4)
		if err != nil {
			b.Fatal(err)
		}
		ct := &ticket.ChannelTicket{
			UserIN: uint64(i), ChannelID: "bench", NetAddr: string(addr),
			ClientKey: kp.Public(), Start: s.Now(), Expiry: s.Now().Add(1000 * time.Hour),
		}
		p.SetTicket(ticket.SignChannel(ct, cmKeys))
		s.Go(func() {
			if err := p.JoinParent("root", nil, 0); err != nil {
				b.Errorf("join: %v", err)
			}
		})
	}
	s.RunUntil(s.Now().Add(time.Minute))
	sched, _ := keys.NewSchedule(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := sched.Rotate()
		if err != nil {
			b.Fatal(err)
		}
		root.InjectKey(ck)
	}
	b.StopTimer()
	s.RunUntil(s.Now().Add(time.Hour))
}

// BenchmarkFarmScaling runs a miniature E8 point (farm of 2 under a
// small burst) end to end.
func BenchmarkFarmScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.RunFarmScaling(exp.FarmConfig{
			Seed:      int64(i + 1),
			Viewers:   40,
			Spread:    10 * time.Second,
			FarmSizes: []int{2},
		})
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].Failures > 0 {
			b.Fatalf("failures: %d", pts[0].Failures)
		}
	}
}

// BenchmarkFig5WeekTrace runs a miniature of the whole Fig. 5 pipeline:
// a 6-hour diurnal trace with full protocol traffic and analysis.
func BenchmarkFig5WeekTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunWeek(exp.WeekConfig{
			Seed:                int64(i + 1),
			Days:                1,
			Channels:            3,
			Users:               30,
			PeakSessionsPerHour: 20,
			MeanSession:         15 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Correlations()
	}
}

// BenchmarkSecureTransport is the §IV-G1 ablation: the full login
// exchange over plaintext vs. the SSL-like sealed transport, quantifying
// what the optional protection costs per login.
func BenchmarkSecureTransport(b *testing.B) {
	for _, mode := range []struct {
		name   string
		secure bool
	}{{"plain", false}, {"sealed", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			sys, err := core.NewSystem(core.Options{
				Seed:            1,
				PacketInterval:  24 * 365 * time.Hour,
				SecureTransport: mode.secure,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.DeployChannel(core.FreeToView("bench", "Bench", "100")); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.RegisterUser("bench@e", "pw"); err != nil {
				b.Fatal(err)
			}
			c, err := sys.NewClient("bench@e", "pw", geo.Addr(100, 1, 1), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sys.Sched.Go(func() {
				for i := 0; i < b.N; i++ {
					if err := c.Login(); err != nil {
						b.Errorf("login: %v", err)
						return
					}
				}
			})
			sys.Sched.RunUntil(sys.Sched.Now().Add(time.Duration(b.N+1) * time.Hour))
		})
	}
}

// --- Component benchmarks ------------------------------------------------

// BenchmarkTicketSignVerify measures the User Ticket round trip the
// managers perform per request. Each iteration signs a different UserIN
// into an emptied memo, so every verify is a real Ed25519 check, never a
// memo hit.
func BenchmarkTicketSignVerify(b *testing.B) {
	rng := cryptoutil.NewSeededReader(1)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	cli, _ := cryptoutil.NewKeyPair(rng)
	ut := &ticket.UserTicket{
		UserIN: 1, ClientKey: cli.Public(),
		Start:  time.Unix(0, 0),
		Expiry: time.Unix(3600, 0),
		Attrs: attr.List{
			{Name: attr.NameNetAddr, Value: "r100.as1.h1"},
			{Name: attr.NameRegion, Value: "100"},
			{Name: attr.NameSubscription, Value: "gold"},
		},
	}
	ticket.ResetVerifyMemo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ut.UserIN = uint64(i)
		blob := ticket.SignUser(ut, mgr)
		if _, err := ticket.VerifyUser(blob, mgr.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyEvaluate measures one channel-policy evaluation.
func BenchmarkPolicyEvaluate(b *testing.B) {
	ch := core.FreeToView("x", "X", "100", "200", "300")
	boAttr, boRule := policy.Blackout(time.Unix(100, 0), time.Unix(200, 0), 100, time.Unix(0, 0))
	ch.Attrs = append(ch.Attrs, boAttr)
	ch.Rules = append(ch.Rules, boRule)
	user := attr.List{
		{Name: attr.NameRegion, Value: "200"},
		{Name: attr.NameSubscription, Value: "gold"},
	}
	now := time.Unix(50, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := ch.EvaluateUser(user, now); d.Effect != policy.Accept {
			b.Fatal("unexpected reject")
		}
	}
}

// BenchmarkSealPacket measures per-packet content encryption at the
// Channel Server (256-byte frames).
func BenchmarkSealPacket(b *testing.B) {
	rng := cryptoutil.NewSeededReader(1)
	sched, _ := keys.NewSchedule(rng)
	ck := sched.Current()
	payload := make([]byte, 256)
	aad := []byte("bench")
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := keys.SealPacket(rng, ck, payload, aad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenPacket measures per-packet decryption at a viewer.
func BenchmarkOpenPacket(b *testing.B) {
	rng := cryptoutil.NewSeededReader(1)
	sched, _ := keys.NewSchedule(rng)
	ck := sched.Current()
	ring := keys.NewRing(4)
	ring.Add(ck)
	payload := make([]byte, 256)
	aad := []byte("bench")
	pkt, _ := keys.SealPacket(rng, ck, payload, aad)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := keys.OpenPacket(ring, pkt, aad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECIESSealOpen measures the session-key handoff crypto used at
// every peer admission.
func BenchmarkECIESSealOpen(b *testing.B) {
	rng := cryptoutil.NewSeededReader(1)
	kp, _ := cryptoutil.NewKeyPair(rng)
	session := make([]byte, cryptoutil.SymKeySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct, err := cryptoutil.Seal(rng, kp.Public(), session)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kp.Open(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiurnalArrivals measures the workload generator.
func BenchmarkDiurnalArrivals(b *testing.B) {
	rng := newRand()
	arr := workload.NewArrivals(rng, workload.DiurnalProfile(), 1000,
		time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC))
	now := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(arr.Next(now))
	}
}

// BenchmarkSymSealOpen measures one symmetric seal+open round trip
// (256-byte payload): the one-shot SymKey path rebuilds the AES/GCM state
// per call, the cached SealKey path amortizes it.
func BenchmarkSymSealOpen(b *testing.B) {
	rng := cryptoutil.NewSeededReader(1)
	key, err := cryptoutil.NewSymKey(rng)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	aad := []byte("bench")

	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ct, err := key.Seal(rng, payload, aad)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := key.Open(ct, aad); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		sk := key.Sealer()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct, err := sk.Seal(rng, payload, aad)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sk.Open(ct, aad); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// coldTickets is twice the ticket signature memo's 4096 entries of
// distinct signed Channel Tickets. Cycling through them in order from an
// emptied memo, an LRU of that size never still holds the next one, so
// each verify is cold.
var coldTickets = sync.OnceValues(func() ([][]byte, cryptoutil.PublicKey) {
	rng := cryptoutil.NewSeededReader(1)
	mgr, _ := cryptoutil.NewKeyPair(rng)
	cli, _ := cryptoutil.NewKeyPair(rng)
	ct := &ticket.ChannelTicket{
		ChannelID: "bench", NetAddr: "r100.as1.h1",
		ClientKey: cli.Public(),
		Start:     time.Unix(0, 0), Expiry: time.Unix(3600, 0),
	}
	blobs := make([][]byte, 2*4096)
	for i := range blobs {
		ct.UserIN = uint64(i)
		blobs[i] = ticket.SignChannel(ct, mgr)
	}
	return blobs, mgr.Public()
})

// BenchmarkTicketVerifyCold measures full Channel Ticket verification
// (Ed25519 + body parse) of a ticket the signature memo has not seen —
// the cost of a ticket's first presentation anywhere in the process.
func BenchmarkTicketVerifyCold(b *testing.B) {
	blobs, pub := coldTickets()
	ticket.ResetVerifyMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ticket.VerifyChannel(blobs[i%len(blobs)], pub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTicketVerifyWarm measures the same verification when the
// signature memo already holds the ticket — the cost every later manager
// or parent peer pays for a presentation (renewals, rejoins, every
// SWITCH round of a ticket's lifetime). The body is still parsed.
func BenchmarkTicketVerifyWarm(b *testing.B) {
	blobs, pub := coldTickets()
	blob := blobs[0]
	if _, err := ticket.VerifyChannel(blob, pub); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ticket.VerifyChannel(blob, pub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSectranRoundTrip measures one sealed RPC through the §IV-G1
// SSL-like transport: ECIES request envelope, handler dispatch, pooled
// response encoding, GCM response seal+open.
func BenchmarkSectranRoundTrip(b *testing.B) {
	s := sim.New(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: time.Millisecond}))
	rng := cryptoutil.NewSeededReader(1)
	srvKeys, _ := cryptoutil.NewKeyPair(rng)
	srv := net.NewNode("server")
	rt := svc.NewRuntime(srv)
	svc.RegisterRaw(rt, "echo", func(_ simnet.Addr, payload []byte) ([]byte, error) {
		return payload, nil
	})
	if err := rt.EnableSealed(srvKeys, rng, "echo"); err != nil {
		b.Fatal(err)
	}
	cli := net.NewNode(geo.Addr(100, 1, 1))
	pub := srvKeys.Public()
	req := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			if _, err := sectran.Call(cli, "server", "echo", pub, req, 10*time.Second, rng); err != nil {
				b.Errorf("call: %v", err)
				return
			}
		}
	})
	s.RunUntil(s.Now().Add(time.Duration(b.N+1) * time.Minute))
}

// --- helpers -------------------------------------------------------------

func newBenchPeer(net *simnet.Network, addr simnet.Addr, cmKeys, own *cryptoutil.KeyPair, rng *cryptoutil.SeededReader, maxChildren int) (*p2p.Peer, error) {
	return p2p.NewPeer(net.NewNode(addr), p2p.Config{
		ChannelID:   "bench",
		ChanMgrKey:  cmKeys.Public(),
		Keys:        own,
		MaxChildren: maxChildren,
		RNG:         rng,
	})
}

func newRand() *mrand.Rand {
	return mrand.New(mrand.NewSource(1))
}

func syntheticCorpus(n int) *feedback.Corpus {
	c := feedback.NewCorpus()
	l := feedback.NewLog()
	start := time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * (7 * 24 * time.Hour) / time.Duration(n))
		lat := time.Duration(50+i%100) * time.Millisecond
		l.Record(feedback.Join, at, lat, true)
	}
	c.Submit(l)
	for h := 0; h < 168; h++ {
		c.RecordUsers(start.Add(time.Duration(h)*time.Hour), 100+h%24*50)
	}
	return c
}
