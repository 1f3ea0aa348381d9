package geom

import "math"

// DerivedExp returns the "natural" expiration time of r (paper
// §4.1.1): when expiration times are not recorded in internal index
// entries, a rectangle that shrinks in some dimension still cannot
// contain anything after the time its extent reaches zero, so that
// time serves as a derived expiration time.  It returns the earliest
// such zero-crossing after now, or +Inf when no extent shrinks.  r is
// only read.
//
// The result is never less than now: an extent already at or below
// zero yields now itself, and otherwise now + ext/(-dv) adds a positive
// quotient to now, which rounding cannot make smaller.  An entry whose
// expiration time is derived therefore never counts as expired, and a
// purge has nothing to drop on a level whose entries expire this way.
func DerivedExp(r *TPRect, now float64, dims int) float64 {
	e := math.Inf(1)
	for i := 0; i < dims; i++ {
		dv := r.VHi[i] - r.VLo[i]
		if dv >= 0 {
			continue
		}
		ext := (r.Hi[i] - r.Lo[i]) + dv*now
		if ext <= 0 {
			return now
		}
		if tz := now + ext/(-dv); tz < e {
			e = tz
		}
	}
	return e
}
