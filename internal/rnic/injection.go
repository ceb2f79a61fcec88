package rnic

import (
	"repro/internal/ib"
	"repro/internal/units"
)

// Per-tenant injection rate limiting (the slicing extension): a token
// bucket that paces the data packets a set of RNICs injects into the
// fabric on one VL. It mirrors the switch's per-VL egress tokenBucket
// (ibswitch.SetVLRateLimit) but sits at the opposite end of the slice
// contract: the switch-side VLArb weights divide the congested egress
// proportionally, while the injection bucket makes the slice
// non-work-conserving — a tenant cannot exceed its promised rate even
// when the other tenants are idle, which is what makes delivered ≤
// promised a checkable guarantee.
//
// One InjectionLimiter is shared by every member NIC of a tenant, so the
// promised rate bounds the tenant's aggregate injection, not a per-NIC
// share: a single busy member may use the whole slice while the others
// are quiet. Sharing mutable state across NICs is safe only while all the
// member NICs live on one engine. A sharded run puts NICs on per-shard
// engines that advance concurrently, so the spec layer rejects tenants
// with more than one shard.
//
// Scope: the bucket meters data packets bound for the fabric wire.
// Loopback traffic never leaves the NIC, and ACKs are exempt overhead —
// charging them would couple tenants through shared responder engines at
// receive-side NICs (an ACK waiting for tokens would head-of-line block
// another tenant's ACKs behind it), which is an artifact of engine
// sharing, not a property of the slice.

// InjectionLimiter is a token bucket (bytes at wire size) shared by one
// tenant's sending NICs. Construct with NewInjectionLimiter and install
// per member NIC with SetInjectionLimit.
type InjectionLimiter struct {
	rate   units.Bandwidth
	perPs  float64 // rate in bytes per picosecond, for lossless refill
	burst  units.ByteSize
	tokens float64
	last   units.Time
}

// NewInjectionLimiter builds a bucket enforcing rate with the given burst
// allowance. The burst is clamped from below to one maximum-size wire
// packet so a single packet can always eventually be admitted; a bucket
// whose burst is smaller than the head packet would stall forever.
func NewInjectionLimiter(rate units.Bandwidth, burst units.ByteSize) *InjectionLimiter {
	if min := ib.DefaultMTU + ib.MaxHeaderBytes; burst < min {
		burst = min
	}
	return &InjectionLimiter{
		rate:   rate,
		perPs:  float64(rate) / (8 * float64(units.Second/units.Picosecond)),
		burst:  burst,
		tokens: float64(burst),
	}
}

// Rate reports the configured rate.
func (l *InjectionLimiter) Rate() units.Bandwidth { return l.rate }

// admitAt refills the bucket to now and, if size tokens are available,
// consumes them and reports admission. Otherwise it reports the earliest
// time at which enough tokens will have accumulated; the caller re-arms
// and retries (another member may win the tokens in between — the retry
// loop converges because every refill admits someone).
//
// The refill must be fractional: blocked engines of a shared bucket retry
// at sub-nanosecond spacing near admission, and a whole-byte refill that
// still advances last would discard the sub-byte remainder on every retry
// — with two members' retry phases interleaved, the bucket then never
// accumulates the final byte and the tenant wedges permanently.
func (l *InjectionLimiter) admitAt(now units.Time, size units.ByteSize) (units.Time, bool) {
	if now > l.last {
		l.tokens += float64(now.Sub(l.last)) * l.perPs
		if max := float64(l.burst); l.tokens > max {
			l.tokens = max
		}
		l.last = now
	}
	if l.tokens >= float64(size) {
		l.tokens -= float64(size)
		return 0, true
	}
	deficit := float64(size) - l.tokens
	wait := units.Serialization(units.ByteSize(deficit)+1, l.rate)
	return now.Add(wait), false
}

// SetInjectionLimit installs (or, with nil, removes) an injection limiter
// for one VL on this NIC. The same limiter may be installed on several
// NICs to bound their aggregate rate.
func (r *RNIC) SetInjectionLimit(vl ib.VL, l *InjectionLimiter) {
	r.limits[vl] = l
}
