package motion

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/segment"
)

// bitsEqual reports whether two vectors are bit-identical.
func bitsEqual(a, b geom.Vec) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// requireFrozenMover fails unless got holds the motion the frozen Set built:
// the same kind, bit-identical linear or circular parameters, and
// bit-identical positions at the start, middle and end of the segment and
// speed bounds.
func requireFrozenMover(t *testing.T, label string, got *Mover, want *frozenMover, absStart, dur float64) {
	t.Helper()
	if got.kind != want.kind {
		t.Fatalf("%s: mover kind %d, frozen %d", label, got.kind, want.kind)
	}
	switch got.kind {
	case moverLinear:
		if g, w := fmt.Sprintf("%#v", got.lin), fmt.Sprintf("%#v", want.lin); g != w {
			t.Fatalf("%s: linear motion\ngot    %s\nfrozen %s", label, g, w)
		}
	case moverCircular:
		if g, w := fmt.Sprintf("%#v", got.circ), fmt.Sprintf("%#v", want.circ); g != w {
			t.Fatalf("%s: circular motion\ngot    %s\nfrozen %s", label, g, w)
		}
	default:
		if got.t0 != want.t0 {
			t.Fatalf("%s: fallback start %v, frozen %v", label, got.t0, want.t0)
		}
	}
	for _, at := range []float64{absStart, absStart + dur/3, absStart + dur/2, absStart + dur} {
		if g, w := got.At(at), want.At(at); !bitsEqual(g, w) {
			t.Fatalf("%s: At(%v) = %v, frozen %v", label, at, g, w)
		}
	}
	if g, w := got.SpeedBound(), want.SpeedBound(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: SpeedBound %v, frozen %v", label, g, w)
	}
}

// requireFrozenSeg fails unless the placement of seg — through f, or as it
// is when f is nil — agrees bit for bit with the frozen segment fz:
// duration and length, start and end points, positions across (and past)
// the segment, speed bound and circular geometry.
func requireFrozenSeg(t *testing.T, label string, seg *segment.Seg, f *segment.Frame, fz *frozenSeg) (dur float64) {
	t.Helper()
	dur, length := seg.DurationAndLength()
	start, end, speed := seg.Start(), seg.End(), seg.MaxSpeed()
	pos, arc := seg.Position, func(d float64) (segment.ArcGeometry, bool) { return segment.ArcAtDur(seg, d) }
	if f != nil {
		d, l := f.Duration(seg, dur), length*f.Norm() // placed from the raw values
		dur, length = f.DurationAndLength(seg)
		if math.Float64bits(d) != math.Float64bits(dur) || math.Float64bits(l) != math.Float64bits(length) {
			t.Fatalf("%s: Duration and Norm give %v, %v; DurationAndLength %v, %v", label, d, l, dur, length)
		}
		start, end = f.Endpoints(seg)
		speed = f.MaxSpeed(seg)
		pos = func(t float64) geom.Vec { return f.Position(seg, t) }
		arc = func(d float64) (segment.ArcGeometry, bool) { return f.ArcAtDur(seg, d) }
	} else if d := seg.Duration(); math.Float64bits(d) != math.Float64bits(dur) {
		t.Fatalf("%s: Duration %v, DurationAndLength %v", label, d, dur)
	}
	wd, wl := fz.DurationAndLength()
	if math.Float64bits(dur) != math.Float64bits(wd) || math.Float64bits(length) != math.Float64bits(wl) {
		t.Fatalf("%s: duration, length = %v, %v; frozen %v, %v", label, dur, length, wd, wl)
	}
	if d := fz.Duration(); math.Float64bits(d) != math.Float64bits(wd) {
		t.Fatalf("%s: frozen Duration %v, DurationAndLength %v", label, d, wd)
	}
	if !bitsEqual(start, fz.Start()) || !bitsEqual(end, fz.End()) {
		t.Fatalf("%s: endpoints %v, %v; frozen %v, %v", label, start, end, fz.Start(), fz.End())
	}
	for _, at := range []float64{-1, 0, dur / 3, dur / 2, dur, dur + 1} {
		if g, w := pos(at), fz.Position(at); !bitsEqual(g, w) {
			t.Fatalf("%s: Position(%v) = %v, frozen %v", label, at, g, w)
		}
	}
	if w := fz.MaxSpeed(); math.Float64bits(speed) != math.Float64bits(w) {
		t.Fatalf("%s: MaxSpeed %v, frozen %v", label, speed, w)
	}
	g, ok := arc(dur)
	w, wok := fz.ArcAtDur(dur)
	if ok != wok || fmt.Sprintf("%#v", g) != fmt.Sprintf("%#v", w) {
		t.Fatalf("%s: ArcAtDur = %#v, %v; frozen %#v, %v", label, g, ok, w, wok)
	}
	return dur
}

// FuzzSetFramedMatchesSet differentially checks the placement of raw
// segments — segment.Frame's Duration, Position, Start, End, MaxSpeed and
// ArcAtDur, and Mover.SetFramed's linear, circular and fallback dispatch —
// against the frozen framed-segment arithmetic and Mover.Set it replaced
// (frozen_test.go): the two must agree bit for bit. The same raw segment's
// own methods and Mover.Set are checked against the frozen unframed form.
//
// shape picks the payload (bits 0–1: wait, line, arc), degenerate payloads
// (bit 2: zero-time wait, From == To line, zero-radius arc; bit 3: zero
// sweep), the map (bits 4–5: a robot frame v·τ·Rot(φ)·Diag(1,χ) + origin
// with χ = +1 or χ = −1, a shear, or an arbitrary matrix — the last two
// mostly non-similarities, which reach the fallback) and a speed-modulation
// dilation on the raw segment (bit 6), which a frame places outside its
// clock.
func FuzzSetFramedMatchesSet(f *testing.F) {
	f.Add(uint8(0x02), 1.0, -0.5, 2.0, 0.25, 1.5, 0.3, 2.0, 0.5, 2.0, 0.7, 3.0, -1.0, 10.0, 0.2, -0.4)
	f.Add(uint8(0x01), -2.0, 1.0, 3.0, 4.0, 0.75, 0.0, 0.0, 1.5, 0.5, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(0x00), 0.5, 0.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.25, 1.0, 0.0, 1.0, 1.0, 3.0, 0.0, 0.0)
	f.Add(uint8(0x26), 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 6.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
	f.Add(uint8(0x3a), 1.0, 2.0, 0.0, 0.0, 1.0, 0.4, 0.0, 2.0, 3.0, 1.0, -2.0, 5.0, 1.0, 0.3, 0.9)
	f.Add(uint8(0x42), 1.0, 2.0, 0.0, 0.0, 1.0, 0.4, 1.0, 2.0, 3.0, 1.0, -2.0, 5.0, 1.0, 0.3, 0.9)
	f.Add(uint8(0x51), 0.3, -1.0, 2.5, 1.5, 0.8, 0.0, 0.0, 0.9, 1.7, 2.2, 0.5, 0.5, 4.0, 0.0, 1.3)
	f.Add(uint8(0x40), 2.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 1.0, 0.6, 0.0, 0.0, 0.0, 2.0, 0.0, 0.7)
	f.Add(uint8(0x62), -1.0, 0.5, 0.3, 0.0, 1.2, 0.8, 2.5, 1.1, 2.5, 0.0, 1.0, -1.0, 0.5, 0.4, 3.0)
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

		var payload any
		switch shape % 4 {
		case 0:
			at, time := geom.V(ax, ay), math.Abs(p1)
			if degenerate {
				time = 0
			}
			payload = segment.Wait{At: at, Time: time}
		case 1:
			from, to := geom.V(ax, ay), geom.V(bx, by)
			if degenerate {
				to = from
			}
			payload = segment.Line{From: from, To: to, Speed: speed}
		default:
			radius, sweep := math.Abs(p2), p3
			if degenerate {
				radius = 0
			}
			if zeroSweep {
				sweep = 0
			}
			payload = segment.Arc{Center: geom.V(ax, ay), Radius: radius, StartAngle: bx, Sweep: sweep, Speed: speed}
		}
		var raw segment.Seg
		switch p := payload.(type) {
		case segment.Wait:
			raw = p.Seg()
		case segment.Line:
			raw = p.Seg()
		case segment.Arc:
			raw = p.Seg()
		}
		var mod float64
		if shape&0x40 != 0 {
			mod = pos(q2, 0.25, 4)
			raw = raw.Dilated(mod)
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

		bare := frozenOf(payload, mod, false, geom.Affine{}, 0)
		dur := requireFrozenSeg(t, "raw", &raw, nil, &bare)
		var got Mover
		got.Set(&raw, absStart, dur)
		want := frozenSet(&bare, absStart, dur)
		requireFrozenMover(t, "Set", &got, &want, absStart, dur)

		framed := frozenOf(payload, mod, true, m, tau)
		dur = requireFrozenSeg(t, "framed", &raw, &fr, &framed)
		got = Mover{}
		got.SetFramed(&raw, &fr, absStart, dur)
		want = frozenSet(&framed, absStart, dur)
		requireFrozenMover(t, "SetFramed", &got, &want, absStart, dur)
	})
}
