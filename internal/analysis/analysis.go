// Package analysis provides offline verification tools for trajectory
// algorithms: exact point-to-trajectory distances, coverage checking (the
// empirical content of Lemma 1 — every point of the designed annulus is
// approached within the designed granularity), and competitive-ratio
// accounting against the offline optimum.
package analysis

import (
	"errors"
	"math"

	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// DistanceToSegment returns the exact minimum distance from point p to the
// path traced by seg. Lines, waits, and arcs are closed-form; a speed
// modulation changes when the path is traced, not where, so it is ignored.
func DistanceToSegment(p geom.Vec, seg segment.Seg) float64 {
	return distanceToSegment(p, &seg)
}

// distanceToSegment is DistanceToSegment on the segment in place.
func distanceToSegment(p geom.Vec, seg *segment.Seg) float64 {
	switch seg.Kind() {
	case segment.KindWait:
		w, _ := seg.AsWait()
		return p.Dist(w.At)
	case segment.KindLine:
		l, _ := seg.AsLine()
		return distancePointToLineSegment(p, l.From, l.To)
	default:
		a, _ := seg.AsArc()
		return distancePointToArc(p, a)
	}
}

func distancePointToLineSegment(p, a, b geom.Vec) float64 {
	ab := b.Sub(a)
	n2 := ab.Norm2()
	if n2 == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / n2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(ab.Scale(t)))
}

func distancePointToArc(p geom.Vec, a segment.Arc) float64 {
	return distancePointToArcGeometry(p, segment.ArcGeometry{
		Center:     a.Center,
		Radius:     a.Radius,
		StartAngle: a.StartAngle,
		Omega:      a.AngularVelocity(),
		Duration:   a.Duration(),
	})
}

// distancePointToArcGeometry computes the exact distance from p to the arc
// swept by g: if the angle of p (about the center) lies inside the swept
// range, the nearest arc point is radially aligned and the distance is
// ||p−C| − R|; otherwise it is the nearer endpoint.
func distancePointToArcGeometry(p geom.Vec, g segment.ArcGeometry) float64 {
	if g.Radius == 0 {
		return p.Dist(g.Center)
	}
	sweep := g.Omega * g.Duration // signed total angle
	cp := p.Sub(g.Center)
	if math.Abs(sweep) >= 2*math.Pi {
		// Full circle (or more): every angle is covered.
		return math.Abs(cp.Norm() - g.Radius)
	}
	if cp.Norm() == 0 {
		return g.Radius
	}
	// Angle of p relative to the start, measured in the sweep direction.
	rel := normAngle((cp.Angle() - g.StartAngle) * sign(sweep))
	if rel <= math.Abs(sweep) {
		return math.Abs(cp.Norm() - g.Radius)
	}
	return math.Min(p.Dist(g.Position(0)), p.Dist(g.Position(g.Duration)))
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

func normAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// CoverageReport summarises how well a trajectory covers a target region at
// a required granularity.
type CoverageReport struct {
	// Queries is the number of probe points.
	Queries int
	// Covered counts probes whose distance to the path is ≤ the granularity.
	Covered int
	// WorstGap is the maximum over probes of the distance to the path.
	WorstGap float64
	// WorstPoint attains WorstGap.
	WorstPoint geom.Vec
}

// FullyCovered reports whether every probe was within the granularity.
func (c CoverageReport) FullyCovered() bool { return c.Covered == c.Queries }

// CoverAnnulus probes a polar grid over the annulus [rIn, rOut] and checks
// each point is within rho of src, a finite program. radial and angular set
// the grid resolution (≥ 1 and ≥ 3 respectively). It reads src once: each
// segment, pulled once, is folded into every probe's running minimum
// distance, so each probe's distance is the exact minimum over the
// program's segments (+Inf for an empty program).
func CoverAnnulus(src trajectory.Source, rIn, rOut, rho float64, radial, angular int) (CoverageReport, error) {
	if rOut <= rIn || rIn < 0 || rho <= 0 {
		return CoverageReport{}, errors.New("analysis: need 0 ≤ rIn < rOut and rho > 0")
	}
	if radial < 1 || angular < 3 {
		return CoverageReport{}, errors.New("analysis: grid too coarse")
	}
	type probe struct {
		p geom.Vec
		d float64 // the distance to the segments pulled so far
	}
	probes := make([]probe, 0, (radial+1)*angular)
	for i := 0; i <= radial; i++ {
		radius := rIn + (rOut-rIn)*float64(i)/float64(radial)
		for j := range angular {
			angle := 2 * math.Pi * float64(j) / float64(angular)
			probes = append(probes, probe{p: geom.Polar(radius, angle), d: math.Inf(1)})
		}
	}
	var cur trajectory.Cursor
	cur.Init(src)
	for {
		seg, _, _, ok := cur.Pull()
		if !ok {
			break
		}
		for i := range probes {
			if dd := distanceToSegment(probes[i].p, seg); dd < probes[i].d {
				probes[i].d = dd
			}
		}
	}
	var rep CoverageReport
	for _, pr := range probes {
		rep.Queries++
		if pr.d <= rho {
			rep.Covered++
		}
		if pr.d > rep.WorstGap {
			rep.WorstGap = pr.d
			rep.WorstPoint = pr.p
		}
	}
	return rep, nil
}

// OfflineOptimumSearch returns the time an omniscient robot needs to find a
// target at distance d with visibility r: walk straight, d − r (0 when the
// target is already visible). The competitive ratio of a search strategy is
// its time divided by this.
func OfflineOptimumSearch(d, r float64) float64 {
	if d <= r {
		return 0
	}
	return d - r
}

// CompetitiveRatio returns measured/OfflineOptimumSearch, or +Inf when the
// offline optimum is 0.
func CompetitiveRatio(measured, d, r float64) float64 {
	opt := OfflineOptimumSearch(d, r)
	if opt == 0 {
		return math.Inf(1)
	}
	return measured / opt
}
