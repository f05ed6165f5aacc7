package motion

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

// panicOf runs f and returns what it panicked with (nil if it returned).
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// requireSameMover fails unless got and want hold bit-identical motions: the
// same fields (printed with %#v, which spells every float64 exactly and
// includes the unexported ones), and bit-equal positions at the start,
// middle and end of the segment and speed bounds.
func requireSameMover(t *testing.T, got, want *Mover, absStart, dur float64) {
	t.Helper()
	if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *want); g != w {
		t.Fatalf("movers differ:\nSetFramed %s\nSet       %s", g, w)
	}
	for _, at := range []float64{absStart, absStart + dur/2, absStart + dur} {
		g, w := got.At(at), want.At(at)
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			t.Fatalf("At(%v): SetFramed %v, Set %v", at, g, w)
		}
	}
	if g, w := got.SpeedBound(), want.SpeedBound(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("SpeedBound: SetFramed %v, Set %v", g, w)
	}
}

// FuzzSetFramedMatchesSet differentially checks Mover.SetFramed, which
// places a raw local segment under a cached segment.Frame, against Set on
// the framed segment Frame.Apply builds: the two must agree bit for bit.
//
// shape picks the payload (bits 0–1: wait, line, arc), degenerate payloads
// (bit 2: zero-time wait, From == To line, zero-radius arc; bit 3: zero
// sweep), the map (bits 4–5: a robot frame v·τ·Rot(φ)·Diag(1,χ) + origin
// with χ = +1 or χ = −1, a shear, or an arbitrary matrix — the last two
// mostly non-similarities, which reach the fallback) and a time dilation on
// the raw segment (bit 6), on which both sides must panic alike.
func FuzzSetFramedMatchesSet(f *testing.F) {
	f.Add(uint8(0x02), 1.0, -0.5, 2.0, 0.25, 1.5, 0.3, 2.0, 0.5, 2.0, 0.7, 3.0, -1.0, 10.0, 0.2, -0.4)
	f.Add(uint8(0x01), -2.0, 1.0, 3.0, 4.0, 0.75, 0.0, 0.0, 1.5, 0.5, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(0x00), 0.5, 0.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.25, 1.0, 0.0, 1.0, 1.0, 3.0, 0.0, 0.0)
	f.Add(uint8(0x26), 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 6.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
	f.Add(uint8(0x3a), 1.0, 2.0, 0.0, 0.0, 1.0, 0.4, 0.0, 2.0, 3.0, 1.0, -2.0, 5.0, 1.0, 0.3, 0.9)
	f.Add(uint8(0x42), 1.0, 2.0, 0.0, 0.0, 1.0, 0.4, 1.0, 2.0, 3.0, 1.0, -2.0, 5.0, 1.0, 0.3, 0.9)
	f.Fuzz(func(t *testing.T, shape uint8, ax, ay, bx, by, p1, p2, p3, v, tau, phi, ox, oy, absStart, q1, q2 float64) {
		for _, p := range []*float64{&ax, &ay, &bx, &by, &p1, &p2, &p3, &v, &tau, &phi, &ox, &oy, &absStart, &q1, &q2} {
			x, ok := sane(*p, 50)
			if !ok {
				return
			}
			*p = x
		}
		// Speeds, clocks and radii are positive and bounded away from 0.
		pos := func(x, lo, hi float64) float64 { return lo + math.Mod(math.Abs(x), hi-lo) }
		speed := pos(p1, 0.1, 4)
		degenerate, zeroSweep := shape&4 != 0, shape&8 != 0

		var raw segment.Seg
		switch shape % 4 {
		case 0:
			at, time := geom.V(ax, ay), math.Abs(p1)
			if degenerate {
				time = 0
			}
			raw = segment.Wait{At: at, Time: time}.Seg()
		case 1:
			from, to := geom.V(ax, ay), geom.V(bx, by)
			if degenerate {
				to = from
			}
			raw = segment.Line{From: from, To: to, Speed: speed}.Seg()
		default:
			radius, sweep := math.Abs(p2), p3
			if degenerate {
				radius = 0
			}
			if zeroSweep {
				sweep = 0
			}
			raw = segment.Arc{Center: geom.V(ax, ay), Radius: radius, StartAngle: bx, Sweep: sweep, Speed: speed}.Seg()
		}

		v, tau = pos(v, 0.05, 10), pos(tau, 0.05, 10)
		origin := geom.V(ox, oy)
		var m geom.Affine
		switch (shape >> 4) & 3 {
		case 0, 1:
			chi := 1
			if shape&0x10 != 0 {
				chi = -1
			}
			m = geom.Affine{M: geom.FrameMatrix(v*tau, phi, chi), T: origin}
		case 2:
			m = geom.Affine{M: geom.Mat{A: v, B: q1, C: 0, D: v}, T: origin}
		default:
			m = geom.Affine{M: geom.Mat{A: v, B: q1, C: q2, D: tau}, T: origin}
		}
		fr := segment.NewFrame(m, tau)

		if shape&0x40 != 0 {
			// A dilated raw segment is not a local program segment: Apply
			// panics on it, and so must SetFramed.
			raw = raw.Dilated(pos(q2, 0.25, 4))
			var got Mover
			gp := panicOf(func() { got.SetFramed(&raw, &fr, absStart, 1) })
			wp := panicOf(func() { fr.Apply(&raw) })
			if gp == nil || fmt.Sprint(gp) != fmt.Sprint(wp) {
				t.Fatalf("dilated raw segment: SetFramed panicked with %v, Apply with %v", gp, wp)
			}
			return
		}

		dur, _ := fr.Scale(raw.DurationAndLength())
		framed := fr.Apply(&raw)
		if d := framed.Duration(); math.Float64bits(d) != math.Float64bits(dur) {
			t.Fatalf("Scale gives duration %v, the framed segment %v", dur, d)
		}
		var got, want Mover
		got.SetFramed(&raw, &fr, absStart, dur)
		want.Set(&framed, absStart, dur)
		requireSameMover(t, &got, &want, absStart, dur)
	})
}
