package segment

import "repro/internal/geom"

// Prefix returns the exact prefix of seg lasting duration d (clamped to the
// segment's duration). The prefix of a Line is a shorter Line, of an Arc a
// shorter Arc, of a Wait a shorter Wait; a modulated segment keeps its
// dilation and takes the prefix of its payload in payload-local time.
// Prefixes are used for fault injection (cutting a trajectory at a crash
// time) and for exact truncation.
func Prefix(seg Seg, d float64) Seg {
	if d < 0 {
		d = 0
	}
	if d >= seg.Duration() {
		return seg
	}
	// Convert the cut to payload-local time.
	local := d
	if seg.mod != 0 {
		local /= seg.mod
	}
	out := seg
	switch seg.kind {
	case KindWait:
		w := seg.wait()
		if local >= w.Duration() {
			return seg
		}
		out.s1 = local // Wait{At, Time: local}
	case KindLine:
		l := seg.line()
		total := l.Duration()
		if local >= total || total == 0 {
			return seg
		}
		out.b = l.Position(local) // Line{From, To: cut point, Speed}
	default:
		a := seg.arc()
		total := a.Duration()
		if local >= total || total == 0 {
			return seg
		}
		out.s3 = a.Sweep * (local / total) // Arc{..., Sweep: partial, ...}
	}
	return out
}

// Suffix returns the part of seg after local time t — the complement of
// Prefix, used by fault injection to resume a program after an outage. t at
// or past the end yields a zero wait at the segment's end point; the
// dilation of seg is preserved on the remainder.
func Suffix(seg Seg, t float64) Seg {
	total := seg.Duration()
	if t <= 0 {
		return seg
	}
	if t >= total {
		return Wait{At: seg.End()}.Seg()
	}
	// Payload-local cut time.
	local := t
	if seg.mod != 0 {
		local /= seg.mod
	}
	if local <= 0 {
		return seg
	}
	out := seg
	switch seg.kind {
	case KindWait:
		w := seg.wait()
		if local >= w.Duration() {
			return waitAtEnd(seg)
		}
		out.s1 = w.Time - local // Wait{At, Time: remainder}
	case KindLine:
		l := seg.line()
		if local >= l.Duration() {
			return waitAtEnd(seg)
		}
		out.a = l.Position(local) // Line{From: cut point, To, Speed}
	default:
		a := seg.arc()
		if local >= a.Duration() {
			return waitAtEnd(seg)
		}
		frac := local / a.Duration()
		out.s2 = a.StartAngle + a.Sweep*frac // StartAngle
		out.s3 = a.Sweep * (1 - frac)        // Sweep
	}
	return out
}

// waitAtEnd is a zero-duration wait at the payload's end point, keeping the
// segment's dilation.
func waitAtEnd(seg Seg) Seg {
	out := seg
	out.kind = KindWait
	out.a = seg.End()
	out.b = geom.Vec{}
	out.s1, out.s2, out.s3, out.s4 = 0, 0, 0, 0
	return out
}
