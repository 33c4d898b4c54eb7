package nfs

import (
	"nfvnice/internal/flowtable"
	"nfvnice/internal/proto"
)

// RateLimiter is a token-bucket policer: each flow (or the aggregate) may
// send at RateBps with bursts up to BurstBytes; excess packets are dropped.
// Time is supplied by the caller (Tick) so the limiter works identically
// under the simulator's virtual clock and the dataplane's wall clock.
type RateLimiter struct {
	// RateBps is the refill rate in bytes per second; BurstBytes the
	// bucket depth.
	RateBps    float64
	BurstBytes float64
	// PerFlow polices each 5-tuple separately instead of the aggregate.
	PerFlow bool

	now     float64 // seconds, advanced by Tick
	buckets *flowtable.Map[bucket]
	agg     bucket

	// Conformed and Policed count outcomes.
	Conformed uint64
	Policed   uint64
}

type bucket struct {
	tokens float64
	last   float64
}

// NewRateLimiter returns a limiter with a full bucket.
func NewRateLimiter(rateBps, burstBytes float64, perFlow bool) *RateLimiter {
	rl := &RateLimiter{
		RateBps:    rateBps,
		BurstBytes: burstBytes,
		PerFlow:    perFlow,
		buckets:    flowtable.NewMap[bucket](0),
	}
	rl.agg.tokens = burstBytes
	return rl
}

// Tick advances the limiter's clock to t seconds.
func (rl *RateLimiter) Tick(t float64) {
	if t > rl.now {
		rl.now = t
	}
}

// Name implements Processor.
func (rl *RateLimiter) Name() string { return "ratelimiter" }

func (rl *RateLimiter) bucketFor(t *proto.Tuple) *bucket {
	if !rl.PerFlow {
		return &rl.agg
	}
	b, found := rl.buckets.Upsert(keyOf(t))
	if !found {
		*b = bucket{tokens: rl.BurstBytes, last: rl.now}
	}
	return b
}

// Process implements Processor.
func (rl *RateLimiter) Process(frame []byte) Verdict {
	t, err := proto.DecodeTuple(frame)
	if err != nil || !t.HasIP() {
		return Drop
	}
	b := rl.bucketFor(&t)
	// Refill.
	b.tokens += (rl.now - b.last) * rl.RateBps
	b.last = rl.now
	if b.tokens > rl.BurstBytes {
		b.tokens = rl.BurstBytes
	}
	need := float64(len(frame))
	if b.tokens < need {
		rl.Policed++
		return Drop
	}
	b.tokens -= need
	rl.Conformed++
	return Accept
}
