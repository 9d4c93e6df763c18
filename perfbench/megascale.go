package main

import (
	"time"

	"p2pdrm/internal/exp"
)

// Megascale population: the engine path exp keeps (one lane).
const (
	megaViewers  = 300_000
	megaDuration = 30 * time.Minute
	megaSample   = 10 * time.Second
)

// runMegascale is one iteration of the megascale workload. The virtual
// population lives inside exp, so the run is one call; its first
// streamed metrics row marks the end of set-up.
func runMegascale(seed int64, _ bool) (*iteration, error) {
	fw := newFirstWrite(time.Now)
	start := time.Now()
	res, err := exp.RunMegaScale(exp.MegaConfig{
		Seed:        seed,
		Viewers:     megaViewers,
		Duration:    megaDuration,
		SampleEvery: megaSample,
		Shards:      1,
		MetricsCSV:  fw,
	})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	setup, run, ok := fw.split(start, end)
	it := &iteration{Setup: setup, Run: run, Fingerprint: res.Fingerprint()}
	if !ok {
		it.gate("megascale: no metrics row was written, so set-up and run cannot be split")
	}
	if res.Frames == 0 || res.KeyMsgs == 0 {
		it.gate("megascale: the real overlay delivered %d frames and %d key messages", res.Frames, res.KeyMsgs)
	}
	it.Sim = simSet{
		count("sim.pending_peak", int64(res.PeakPending)),
		count("exp.renewals", res.Renewals),
		count("exp.evictions", res.Evictions),
		count("exp.churned", res.Churned),
		count("p2p.keys_forwarded", res.KeyMsgs),
		count("p2p.packets_delivered", res.Frames),
	}
	it.Attempted = int(res.Renewals + res.Churned + res.Evictions)
	return it, nil
}
