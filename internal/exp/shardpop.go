package exp

import (
	"time"

	"p2pdrm/internal/sim"
)

// laneEpoch is the engine's epoch length: how often control-phase
// samplers observe lane counters (and pay the barrier). It is a fixed
// constant because epoch boundaries are visible to the sampled series:
// changing it would move the goldens.
const laneEpoch = 500 * time.Millisecond

// newEngine builds the lane engine every population scenario runs on,
// starting on the first day of the paper's measurement week (June 23,
// 2008 — core.Options' default Start).
func newEngine(seed int64, shards int) *sim.Sharded {
	return sim.NewSharded(time.Date(2008, 6, 23, 0, 0, 0, 0, time.UTC), seed, shards, laneEpoch)
}

// splitmix64 advances one viewer's private RNG state and returns the
// next 64-bit output (Steele, Lea & Flood's SplitMix64). Each virtual
// viewer owns one state word seeded from the run seed and its GLOBAL
// viewer index, so the stream a viewer consumes is the same no matter
// which lane it lands on — the property that makes sharded fingerprints
// independent of the shard count.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sm64Float maps the next output to [0, 1) with 53 bits of precision.
func sm64Float(s *uint64) float64 {
	return float64(splitmix64(s)>>11) / (1 << 53)
}

// sm64Seed derives a viewer's initial state from the run seed and its
// global index (never zero-collapsing: the constant offsets decorrelate
// adjacent viewers even for seed 0).
func sm64Seed(seed int64, global int) uint64 {
	return uint64(seed)*0x9E3779B97F4A7C15 ^ (uint64(global)+1)*0xBF58476D1CE4E5B9
}

// shardPop is one lane's slice of the virtual viewer population: each
// viewer holds a pending renewal and an eviction sentinel, and a
// renewal may churn the viewer instead. Viewers are striped over lanes
// by global index and draw from entity-local RNG streams; all state here
// is lane-owned, and per-viewer state is flat slices (no per-viewer
// structs or closures: events name one of the lane's two handlers and
// carry the lane-local viewer index as their argument). Counters are
// read by control-phase samplers (commutative sums at epoch boundaries).
type shardPop struct {
	lane       *sim.Shard
	renewEvery time.Duration
	evictAfter time.Duration
	churn      float64

	renewals  int64
	churned   int64
	evictions int64

	renewH, evictedH int32 // lane handler IDs for renew and evicted

	rng   []uint64         // per-viewer SplitMix64 state
	evict []sim.ShardTimer // pending eviction sentinel per viewer
}

// newShardPops stripes n viewers over the engine's lanes (viewer v on
// lane v mod shards) and schedules every viewer's first renewal at a
// uniform phase drawn from its own stream.
func newShardPops(eng *sim.Sharded, n int, seed int64, renewEvery, evictAfter time.Duration, churn float64) []*shardPop {
	shards := eng.NumShards()
	pops := make([]*shardPop, shards)
	for s := range pops {
		size := n / shards
		if s < n%shards {
			size++
		}
		p := &shardPop{
			lane:       eng.Shard(s),
			renewEvery: renewEvery,
			evictAfter: evictAfter,
			churn:      churn,
			rng:        make([]uint64, size),
			evict:      make([]sim.ShardTimer, size),
		}
		p.renewH = p.lane.Handler(p.renew)
		p.evictedH = p.lane.Handler(p.evicted)
		for i := 0; i < size; i++ {
			p.rng[i] = sm64Seed(seed, s+i*shards)
		}
		pops[s] = p
	}
	for _, p := range pops {
		for i := range p.rng {
			phase := time.Duration(sm64Float(&p.rng[i]) * float64(p.renewEvery))
			p.lane.AfterH(phase, p.renewH, uint64(i))
		}
	}
	return pops
}

// renew is one viewer's license renewal: cancel the previous eviction
// sentinel, maybe churn, re-arm both timers.
func (p *shardPop) renew(i uint64) {
	p.evict[i].Stop()
	if sm64Float(&p.rng[i]) < p.churn {
		// Silent departure: no renewal is scheduled, so the sentinel
		// fires at the deadline and admits a replacement.
		p.churned++
		p.evict[i] = p.lane.AfterH(p.evictAfter, p.evictedH, i)
		return
	}
	p.renewals++
	p.evict[i] = p.lane.AfterH(p.evictAfter, p.evictedH, i)
	p.lane.AfterH(p.renewEvery, p.renewH, i)
}

// evicted fires only for churned viewers (renewals always cancel it
// first); the slot's replacement joins with a fresh phase.
func (p *shardPop) evicted(i uint64) {
	p.evictions++
	phase := time.Duration(sm64Float(&p.rng[i]) * float64(p.renewEvery))
	p.lane.AfterH(phase, p.renewH, i)
}

// popTotals sums the commutative counters across lanes (control-phase
// reads observe every lane as of the epoch start).
func popTotals(pops []*shardPop) (renewals, churned, evictions int64) {
	for _, p := range pops {
		renewals += p.renewals
		churned += p.churned
		evictions += p.evictions
	}
	return
}
